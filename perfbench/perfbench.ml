(* The campaign benchmark.  See README.md for the workloads, metrics and
   the contract of the result line.

     perfbench --workload W --seed N --seconds S --trace 0|1
     perfbench --record-refs W (--seeds A-B | --held-out N)
     perfbench --selftest
     perfbench --roadmap-split *)

let m = Outcome.m

(* ---------------- untraced run ---------------- *)

(* One unit of an untraced run: its candidate index, and the set-up
   times and explore passes of every round it ran in. *)
type unit_run = { cand : int; setups : float list; passes : Campaign.pass list }

(* Units are set up and explored one at a time and then dropped, so the
   heap holds one campaign at a time.  The first round takes the first
   [w.units] candidates, in seed order, that fit the working-set bound;
   later rounds re-run them while [seconds] have not elapsed.  The
   correctness gate runs per unit: the first pass passes [Campaign.gate]
   against the reference recorded for this workload and seed
   ([refs]; [recording] skips the comparison), and each re-run repeats
   the first pass's summary. *)
let run_units ?faults ?sup ?recording ~refs (w : Workload.t) ~seed ~seconds =
  let t0 = Measure.now_ns () in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let runs = Array.make w.Workload.units { cand = -1; setups = []; passes = [] } in
  let explore u cand (t, setup_s) =
    let p = Campaign.explore ?faults ?sup w t in
    (match runs.(u).passes with
    | [] ->
        List.iter (err "unit %d: %s" u) (Campaign.gate ?recording t p (Refs.unit_ refs u))
    | p0 :: _ ->
        if p.Campaign.digest <> p0.Campaign.digest then
          err "unit %d: summary differs between rounds" u);
    (* the gate is done with the pass's statistics; keeping them would
       grow the heap with the number of rounds *)
    let p = { p with Campaign.stats = [] } in
    runs.(u) <- { cand; setups = setup_s :: runs.(u).setups; passes = p :: runs.(u).passes }
  in
  let rec first_round u cand =
    if u < w.Workload.units then
      match Campaign.admit w (Workload.config w ~seed cand) with
      | Some unit_ ->
          explore u cand unit_;
          first_round (u + 1) (cand + 1)
      | None -> first_round u (cand + 1)
  in
  first_round 0 0;
  (* at a fixed amount of work, not after however many rounds the host's
     speed allowed *)
  let heap_mb = Measure.heap_peak_mb () in
  let rec more u =
    if Measure.seconds_since t0 < seconds then begin
      let cand = runs.(u).cand in
      Option.iter (explore u cand) (Campaign.setup w (Workload.config w ~seed cand));
      more ((u + 1) mod w.Workload.units)
    end
  in
  more 0;
  (Array.to_list runs, heap_mb, List.rev !errors)

let untraced ?faults ?sup (w : Workload.t) ~seed ~seconds =
  let refs = Refs.find (Refs.load ()) ~workload:w.Workload.name ~seed in
  let runs, heap_mb, errors = run_units ?faults ?sup ~refs w ~seed ~seconds in
  let passes = List.concat_map (fun r -> r.passes) runs in
  let sumi f ps = List.fold_left (fun acc p -> acc + f p) 0 ps in
  let sumf f ps = List.fold_left (fun acc p -> acc +. f p) 0. ps in
  let trials ps = float_of_int (sumi (fun p -> p.Campaign.trials) ps) in
  (* rates per unit, then the median over units: a few costly corpora
     must not decide the run *)
  let per_unit f = Measure.median (List.map (fun r -> f r.passes) runs) in
  let attempted = sumi (fun p -> p.Campaign.tests) passes in
  let failed = if errors = [] then sumi (fun p -> p.Campaign.failed) passes else attempted in
  let gaps = List.concat_map (fun p -> p.Campaign.gaps_ms) passes in
  {
    Outcome.correct = errors = [];
    attempted;
    failed;
    metrics =
      [
        m "trials_per_s" "trial/s" (per_unit (fun ps -> trials ps /. sumf (fun p -> p.Campaign.wall_s) ps));
        m "trials_per_cpu_s" "trial/cpu-s" (per_unit (fun ps -> trials ps /. sumf (fun p -> p.Campaign.cpu_s) ps));
        m "test_ms_p50" "ms" (Measure.quantile 0.5 gaps);
        m "setup_s" "s" (Measure.median (List.concat_map (fun r -> r.setups) runs));
        m "heap_peak_mb" "MB" heap_mb;
      ];
    (* too seed- and host-dependent to bound; see README.md *)
    extra =
      [
        m "test_ms_p95" "ms" (Measure.quantile 0.95 gaps);
        m "find_s" "s" (per_unit (fun ps -> Measure.median (List.map (fun p -> p.Campaign.find_s) ps)));
        m "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
      ];
    notes =
      Printf.sprintf
        "%d of %d tests failed; %d passes over %d units (%d candidates over %d PMCs \
         skipped), %d test-latency samples, %.0f trials"
        failed attempted (List.length passes) w.Workload.units
        (List.fold_left (fun acc r -> max acc r.cand) 0 runs + 1 - w.Workload.units)
        Campaign.max_pmcs (List.length gaps) (trials passes)
      :: List.map (fun e -> "gate: " ^ e) errors;
  }

(* ---------------- reference recording ---------------- *)

(* Record seeds [lo..hi]; [held_out] marks the (single) seed as the one
   kept out of benchmark development. *)
let record_refs ?(held_out = false) (w : Workload.t) ~lo ~hi =
  let refs = ref (Refs.load ()) in
  if held_out then refs := { !refs with Refs.held_out_seed = lo };
  for seed = lo to hi do
    (match run_units ~recording:true ~refs:None w ~seed ~seconds:0. with
    | runs, _, [] ->
        refs :=
          Refs.add !refs ~workload:w.Workload.name ~seed
            (List.map
               (fun r ->
                 let p = List.hd r.passes in
                 { Refs.digest = p.Campaign.digest; issues = p.Campaign.issues })
               runs)
    | _, _, e :: _ -> failwith (Printf.sprintf "%s seed %d: %s" w.Workload.name seed e));
    Printf.printf "%s seed %d recorded\n%!" w.Workload.name seed
  done;
  Refs.save !refs

(* ---------------- self-test ---------------- *)

(* Every workload at a tiny size, untraced and traced: each metric is
   named, has a unit and is finite; the gate passes with nothing failed;
   a seeded crash plan shows up as failed tests; and a seed with no
   recorded reference fails the gate. *)
let selftest () =
  let problems = ref [] in
  let check what ok = if not ok then problems := what :: !problems in
  let well_formed (o : Outcome.t) =
    List.for_all
      (fun (x : Outcome.metric) -> x.Outcome.name <> "" && x.Outcome.unit_ <> "" && Float.is_finite x.Outcome.value)
      (o.Outcome.metrics @ o.Outcome.extra)
  in
  let tiny name = Option.get (Workload.find (name ^ "-tiny")) in
  List.iter
    (fun name ->
      let w = tiny name in
      let o = untraced w ~seed:1 ~seconds:0. in
      check (name ^ ": untraced metrics") (well_formed o && List.length (o.Outcome.metrics @ o.Outcome.extra) = 8);
      check (name ^ ": failed_frac = 0") (o.Outcome.correct && o.Outcome.attempted > 0 && o.Outcome.failed = 0);
      let o = Traced.run w ~seed:1 ~seconds:0. in
      check (name ^ ": traced metrics") (well_formed o && List.length o.Outcome.metrics = 30);
      check (name ^ ": trace fidelity") (o.Outcome.correct && o.Outcome.failed = 0))
    [ "hinted"; "unhinted"; "prepare"; "parallel" ];
  let faults = Sched.Fault.plan ~seed:1 { Sched.Fault.none with Sched.Fault.crash_rate = 1.0 } in
  let sup = { Harness.Supervise.default with Harness.Supervise.max_retries = 0 } in
  let o = untraced ~faults ~sup (tiny "hinted") ~seed:1 ~seconds:0. in
  check "crash plan: failed_frac > 0" (o.Outcome.failed > 0);
  (* seed 2 of a tiny workload has no recorded reference *)
  let o = untraced (tiny "hinted") ~seed:2 ~seconds:0. in
  check "no reference: untraced run fails" ((not o.Outcome.correct) && o.Outcome.failed = o.Outcome.attempted);
  let o = Traced.run (tiny "hinted") ~seed:2 ~seconds:0. in
  check "no reference: traced run fails" ((not o.Outcome.correct) && o.Outcome.failed = o.Outcome.attempted);
  match List.rev !problems with
  | [] -> print_endline "selftest: ok"
  | l ->
      List.iter (fun p -> print_endline ("selftest: FAILED " ^ p)) l;
      exit 1

(* ---------------- ROADMAP cross-check ---------------- *)

(* The traced run on the ROADMAP's scratch configuration: the default
   pipeline, pipeline seed 7, every S-INS-PAIR exemplar (148 tests of 16
   trials). *)
let roadmap_split () =
  let w =
    {
      Workload.hinted with
      Workload.name = "roadmap-split";
      fuzz_iters = Harness.Pipeline.default.Harness.Pipeline.fuzz_iters;
      methods = [ Workload.strategy Core.Cluster.S_INS_PAIR ];
      budget = 1000;
      units = 1;
    }
  in
  let cfg = { (Workload.config w ~seed:0 0) with Harness.Pipeline.seed = 7 } in
  Outcome.print
    (Traced.run ~candidates:(function 0 -> Some cfg | _ -> None) ~check_refs:false w ~seed:7
       ~seconds:infinity)

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n\
    \       perfbench --record-refs W (--seeds A-B | --held-out N)\n\
    \       perfbench --selftest\n\
    \       perfbench --roadmap-split";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | [ ("--selftest" | "--roadmap-split") as k ] -> (k, "1") :: acc
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int k = Option.bind (get k) int_of_string_opt in
  let workload k =
    match Option.bind (get k) Workload.find with Some w -> w | None -> usage ()
  in
  if get "--selftest" <> None then selftest ()
  else if get "--roadmap-split" <> None then roadmap_split ()
  else if get "--record-refs" <> None then
    match (Option.map (String.split_on_char '-') (get "--seeds"), int "--held-out") with
    | Some [ a; b ], None ->
        record_refs (workload "--record-refs") ~lo:(int_of_string a) ~hi:(int_of_string b)
    | None, Some s -> record_refs ~held_out:true (workload "--record-refs") ~lo:s ~hi:s
    | _ -> usage ()
  else
    match (int "--seed", int "--seconds", int "--trace") with
    | Some seed, Some seconds, Some 0 ->
        Outcome.print (untraced (workload "--workload") ~seed ~seconds:(float_of_int seconds))
    | Some seed, Some seconds, Some 1 ->
        Outcome.print (Traced.run (workload "--workload") ~seed ~seconds:(float_of_int seconds))
    | _ -> usage ()
