(* Differential tests for the flat race detector.

   [Detectors.Race] must return exactly the report lists of the hashtable
   detector it replaced ([Race_old]): same order, addresses, pcs, kinds
   and contexts.  Every report of either must be an unordered conflicting
   pair of the brute-force happens-before reference ([Race_hb]).  The
   streams are generated (N threads, overlapping ranges, lock and
   RCU-publish patterns, crowded and wide address sets that grow the
   shadow) and recorded from the planted-issue scenarios.  The last group
   pins the reuse contract: one live detector per domain, retired handles
   stay readable, a grown shadow is dropped, and thread counts do not
   share state. *)

module Trace = Vmm.Trace
module Layout = Vmm.Layout
module Race = Detectors.Race
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type stream = { nthreads : int; events : (Trace.access * string) list }

(* ---------------- running the three detectors ---------------- *)

let kind_name = Trace.kind_name

let run_new { nthreads; events } =
  let d = Race.create ~nthreads () in
  List.iter (fun (a, ctx) -> Race.on_access d a ~ctx) events;
  List.map
    (fun (r : Race.report) ->
      (r.addr, r.write_pc, r.other_pc, kind_name r.other_kind, r.write_ctx, r.other_ctx))
    (Race.reports d)

let run_old { nthreads; events } =
  let d = Race_old.create ~nthreads () in
  List.iter (fun (a, ctx) -> Race_old.on_access d a ~ctx) events;
  List.map
    (fun (r : Race_old.report) ->
      (r.addr, r.write_pc, r.other_pc, kind_name r.other_kind, r.write_ctx, r.other_ctx))
    (Race_old.reports d)

let reference { nthreads; events } =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Race_hb.pair) ->
      Hashtbl.replace tbl (p.addr, p.write_pc, p.other_pc, kind_name p.other_kind) ())
    (Race_hb.races ~nthreads (List.map fst events));
  tbl

let in_reference tbl reports =
  List.for_all (fun (addr, w, o, k, _, _) -> Hashtbl.mem tbl (addr, w, o, k)) reports

let pp_stream { nthreads; events } =
  Printf.sprintf "nthreads=%d\n%s" nthreads
    (String.concat "\n"
       (List.map
          (fun ((a : Trace.access), ctx) ->
            Printf.sprintf "t%d pc=%d %s%s 0x%x+%d %s" a.thread a.pc
              (if a.atomic then "marked " else "")
              (kind_name a.kind) a.addr a.size ctx)
          events))

(* ---------------- stream generators ---------------- *)

let sp_of t = Layout.stack_top t - 64

let access ~t ~pc ~kind ~atomic ~addr ~size =
  { Trace.thread = t; pc; addr; size; kind; value = 0; atomic; sp = sp_of t }

let sizes = [| 1; 2; 4; 8 |]
let lock_cells = [| 0x3100; 0x3108 |]
let flag = 0x3300

(* One thread's program: a sequence of patterns over small, overlapping
   address ranges, so conflicts, lock ordering and publication all occur. *)
let thread_ops st ~t ~patterns ~marked ~wide =
  let rnd = Random.State.int st in
  let pc () = 1 + rnd 12 in
  let kind () = if Random.State.bool st then Trace.Write else Trace.Read in
  let plain ~base ~span k =
    access ~t ~pc:(pc ()) ~kind:k ~atomic:false ~addr:(base + rnd span)
      ~size:sizes.(rnd 4)
  in
  let pattern () =
    match rnd (if marked then 7 else 4) with
    | 0 | 1 ->
        [ plain ~base:0x3000 ~span:40 (kind ()) ]
    | 2 ->
        (* crowded: addresses spread over the heap, plus a page stride
           that shares the low bits *)
        let addr =
          if Random.State.bool st then 0x10000 + rnd (if wide then 0x6fff0 else 0x2000)
          else 0x10000 + (0x1000 * rnd 32) + rnd 4
        in
        [ access ~t ~pc:(pc ()) ~kind:(kind ()) ~atomic:false ~addr ~size:8 ]
    | 3 ->
        (* not shared: the thread's own stack, or user space *)
        let addr = if Random.State.bool st then sp_of t - 8 else Layout.user_base + 64 in
        [ access ~t ~pc:(pc ()) ~kind:(kind ()) ~atomic:false ~addr ~size:8 ]
    | 4 ->
        (* spinlock: CAS acquire, critical section, marked release *)
        let l = lock_cells.(rnd 2) in
        let m k = access ~t ~pc:(pc ()) ~kind:k ~atomic:true ~addr:l ~size:8 in
        [ m Trace.Read; m Trace.Write ]
        @ List.init (1 + rnd 3) (fun _ -> plain ~base:0x3040 ~span:24 (kind ()))
        @ [ m Trace.Write ]
    | 5 ->
        (* RCU publish: initialise, then rcu_assign_pointer *)
        List.init (1 + rnd 2) (fun _ -> plain ~base:0x3200 ~span:16 Trace.Write)
        @ [ access ~t ~pc:(pc ()) ~kind:Trace.Write ~atomic:true ~addr:flag ~size:8 ]
    | _ ->
        (* RCU subscribe: rcu_dereference, then read; sometimes a bare
           marked access of any size *)
        if Random.State.bool st then
          access ~t ~pc:(pc ()) ~kind:Trace.Read ~atomic:true ~addr:flag ~size:8
          :: List.init (1 + rnd 2) (fun _ -> plain ~base:0x3200 ~span:16 Trace.Read)
        else
          [ access ~t ~pc:(pc ()) ~kind:(kind ()) ~atomic:true
              ~addr:(0x3000 + rnd 40) ~size:sizes.(rnd 4) ]
  in
  List.concat (List.init patterns (fun _ -> pattern ()))

(* Interleave the threads' programs at random, access by access. *)
let gen_stream ?(marked = true) ?(wide = false) ~min_len ~max_len () st =
  let nthreads = 1 + Random.State.int st 4 in
  let len = min_len + Random.State.int st (max_len - min_len + 1) in
  let per = max 1 (len / (3 * nthreads)) in
  let progs =
    Array.init nthreads (fun t ->
        ref (thread_ops st ~t ~patterns:(per + Random.State.int st (per + 1)) ~marked ~wide))
  in
  let out = ref [] in
  let live () = List.filter (fun t -> !(progs.(t)) <> []) (List.init nthreads Fun.id) in
  let rec go () =
    match live () with
    | [] -> ()
    | ts ->
        let t = List.nth ts (Random.State.int st (List.length ts)) in
        (match !(progs.(t)) with
        | a :: rest ->
            progs.(t) := rest;
            out := (a, Printf.sprintf "fn%d_t%d" (a.Trace.pc mod 5) t) :: !out
        | [] -> ());
        go ()
  in
  go ();
  { nthreads; events = List.rev !out }

let arb g = QCheck.make ~print:pp_stream g

(* ---------------- differential properties ---------------- *)

let prop_same_as_old =
  QCheck.Test.make ~name:"flat detector = hashtable detector" ~count:600
    (arb (gen_stream ~min_len:1 ~max_len:150 ()))
    (fun s -> run_new s = run_old s)

let prop_within_reference =
  QCheck.Test.make ~name:"every report is an unordered conflict" ~count:300
    (arb (gen_stream ~min_len:1 ~max_len:150 ()))
    (fun s ->
      let tbl = reference s in
      in_reference tbl (run_new s) && in_reference tbl (run_old s))

let prop_unmarked_iff =
  QCheck.Test.make ~name:"no marked accesses: reports iff reference" ~count:300
    (arb (gen_stream ~marked:false ~min_len:1 ~max_len:100 ()))
    (fun s -> (run_new s <> []) = (Hashtbl.length (reference s) > 0))

let prop_large =
  QCheck.Test.make ~name:"large streams grow the shadow" ~count:6
    (arb (gen_stream ~wide:true ~min_len:2500 ~max_len:4000 ()))
    (fun s ->
      let r = run_new s in
      r = run_old s && in_reference (reference s) r)

(* ---------------- recorded scenario streams ---------------- *)

let recorded_trial e ~policy ~nthreads run =
  let buf = ref [] in
  let live = Race.create ~nthreads () in
  let observer =
    {
      Exec.default_observer with
      Exec.on_access =
        (fun a ~ctx ->
          Race.on_access live a ~ctx;
          buf := (a, ctx) :: !buf);
    }
  in
  run e ~policy ~observer;
  let s = { nthreads; events = List.rev !buf } in
  let live_reports = Race.reports live in
  (s, live_reports)

let check_recorded name (s, live_reports) =
  let old = run_old s in
  checkb (name ^ ": live = hashtable") true
    (List.map
       (fun (r : Race.report) ->
         (r.addr, r.write_pc, r.other_pc, kind_name r.other_kind, r.write_ctx, r.other_ctx))
       live_reports
    = old);
  checkb (name ^ ": within reference") true (in_reference (reference s) old)

let test_scenarios () =
  let e = Exec.make_env Kernel.Config.all_buggy in
  let reported = ref 0 in
  List.iter
    (fun (sc : Harness.Scenarios.scenario) ->
      for seed = 1 to 6 do
        let rng = Random.State.make [| seed; sc.issue |] in
        let ((_, r) as rec_) =
          recorded_trial e
            ~policy:(Sched.Policies.naive rng ~period:(1 + (seed mod 3)))
            ~nthreads:2
            (fun e ~policy ~observer ->
              ignore
                (Exec.run_conc e ~writer:sc.writer ~reader:sc.reader ~policy ~observer ()))
        in
        if r <> [] then incr reported;
        check_recorded (Printf.sprintf "issue #%d seed %d" sc.issue seed) rec_
      done)
    Harness.Scenarios.all;
  checkb "some scenario trials report races" true (!reported > 0);
  (* the three-thread relay of section 6, the only 3-thread detector *)
  let relay op = { Fuzzer.Prog.nr = Kernel.Abi.sys_relay; args = [ Fuzzer.Prog.Const op ] } in
  let progs = [| [ relay 1 ]; [ relay 2 ]; [ relay 3 ] |] in
  for seed = 1 to 20 do
    let rng = Random.State.make [| seed |] in
    check_recorded
      (Printf.sprintf "relay seed %d" seed)
      (recorded_trial e ~policy:(Sched.Policies.naive rng ~period:2) ~nthreads:3
         (fun e ~policy ~observer -> ignore (Exec.run_multi e ~progs ~policy ~observer ())))
  done

(* ---------------- reuse contract ---------------- *)

let racy =
  {
    nthreads = 2;
    events =
      [
        (access ~t:0 ~pc:1 ~kind:Trace.Write ~atomic:false ~addr:0x3000 ~size:8, "w");
        (access ~t:1 ~pc:2 ~kind:Trace.Read ~atomic:false ~addr:0x3004 ~size:4, "r");
      ];
  }

let retired f = match f () with exception Invalid_argument _ -> true | _ -> false

let test_retired_handle () =
  let d1 = Race.create () in
  List.iter (fun (a, ctx) -> Race.on_access d1 a ~ctx) racy.events;
  let before = Race.reports d1 in
  checki "first detector reports" 1 (List.length before);
  let d2 = Race.create () in
  let a, ctx = List.hd racy.events in
  checkb "feeding a retired detector raises" true
    (retired (fun () -> Race.on_access d1 a ~ctx));
  checkb "retired reports unchanged" true (Race.reports d1 = before);
  checki "retired count unchanged" 1 (Race.num_reports d1);
  (* the live one starts clean and works *)
  checki "new detector starts empty" 0 (Race.num_reports d2);
  List.iter (fun (a, ctx) -> Race.on_access d2 a ~ctx) racy.events;
  checki "new detector reports" 1 (Race.num_reports d2);
  checkb "retired reports still unchanged" true (Race.reports d1 = before);
  (* a create for another thread count retires it too *)
  let _ = Race.create ~nthreads:3 () in
  checkb "create of another size retires" true
    (retired (fun () -> Race.on_access d2 a ~ctx))

let test_two_domains () =
  let st = Random.State.make [| 42 |] in
  let streams = List.init 300 (fun _ -> gen_stream ~min_len:1 ~max_len:120 () st) in
  let expected = List.map run_new streams in
  let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> List.map run_new streams)) in
  List.iteri
    (fun i d -> checkb (Printf.sprintf "domain %d = sequential" i) true (Domain.join d = expected))
    ds;
  checkb "sequential = hashtable" true (expected = List.map run_old streams)

(* Shadow size, seen from outside: the words a fresh handle reaches (its
   shadow, its epoch cell, no reports yet). *)
let handle_words ?(nthreads = 2) () = Obj.reachable_words (Obj.repr (Race.create ~nthreads ()))

let wide_writes ~bytes =
  {
    nthreads = 2;
    events =
      List.init (bytes / 8) (fun i ->
          (access ~t:(i land 1) ~pc:1 ~kind:Trace.Write ~atomic:false
             ~addr:(0x10000 + (8 * i)) ~size:8, "w"));
  }

let test_slot_limit () =
  (* in a fresh domain, so the sizes other tests left behind do not count *)
  let initial = Domain.join (Domain.spawn (fun () -> handle_words ())) in
  let grown, reused, past, restarted =
    Domain.join
    @@ Domain.spawn (fun () ->
           (* a shadow grown within the limit is kept *)
           ignore (run_new (wide_writes ~bytes:8192));
           let grown = handle_words () in
           ignore (run_new racy);
           let reused = handle_words () in
           (* one pathological trial past the limit: the next create starts small *)
           let d = Race.create () in
           List.iter (fun (a, ctx) -> Race.on_access d a ~ctx) (wide_writes ~bytes:0x10000).events;
           let past = Obj.reachable_words (Obj.repr d) in
           (grown, reused, past, handle_words ()))
  in
  checkb "shadow grew" true (grown > 2 * initial);
  (* the same arrays: only the context strings stored since differ *)
  checkb "grown shadow is reused" true (abs (reused - grown) < 64);
  checkb "stream past the limit grew it further" true (past > 4 * grown);
  checki "next create starts at the initial size" initial restarted

let test_alternating_nthreads () =
  let st = Random.State.make [| 7 |] in
  for i = 1 to 40 do
    let s = gen_stream ~min_len:20 ~max_len:200 () st in
    let s = { s with nthreads = max s.nthreads (2 + (i land 1)) } in
    checkb (Printf.sprintf "round %d (nthreads %d)" i s.nthreads) true (run_new s = run_old s)
  done;
  (* interleave the two sizes directly: a 2-thread trial, a 3-thread
     trial over the same cells, then the 2-thread trial again *)
  let three =
    {
      nthreads = 3;
      events =
        List.map
          (fun ((a : Trace.access), ctx) ->
            let t = a.thread + 1 in
            ({ a with Trace.thread = t; sp = sp_of t }, ctx))
          racy.events;
    }
  in
  let first = run_new racy in
  ignore (run_new three);
  checkb "2-thread shadow undisturbed by a 3-thread trial" true (run_new racy = first)

let test_nthreads_checked () =
  List.iter
    (fun n ->
      match Race.create ~nthreads:n () with
      | exception Invalid_argument msg ->
          checkb (Printf.sprintf "message names nthreads = %d" n) true
            (Testutil.Astring_contains.contains msg "nthreads")
      | _ -> Alcotest.failf "nthreads = %d accepted" n)
    [ -1; 0; Layout.max_threads + 1; 64 ];
  for n = 1 to Layout.max_threads do
    ignore (Race.create ~nthreads:n ())
  done;
  (* an access from a thread the detector does not track *)
  let d = Race.create ~nthreads:2 () in
  checkb "thread outside 0..nthreads-1 raises" true
    (retired (fun () ->
         Race.on_access d
           (access ~t:2 ~pc:1 ~kind:Trace.Write ~atomic:false ~addr:0x3000 ~size:8)
           ~ctx:"w"))

let () =
  Alcotest.run "race"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_same_as_old; prop_within_reference; prop_unmarked_iff; prop_large ] );
      ("scenarios", [ Alcotest.test_case "recorded scenario streams" `Quick test_scenarios ]);
      ( "reuse",
        [
          Alcotest.test_case "second create retires the first" `Quick test_retired_handle;
          Alcotest.test_case "two domains at once" `Quick test_two_domains;
          Alcotest.test_case "slot limit" `Quick test_slot_limit;
          Alcotest.test_case "alternating thread counts" `Quick test_alternating_nthreads;
          Alcotest.test_case "nthreads checked" `Quick test_nthreads_checked;
        ] );
    ]
