(* Untraced campaign runs: set-up, one timed explore pass, and the
   correctness evidence each pass yields. *)

module P = Harness.Pipeline

(* Scratch files (checkpoint journal, provenance, spans) live here,
   inside the checkout. *)
let work_dir = "perfbench/_work"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

(* A unit's working set is its identification.  Candidates with more
   than [max_pmcs] PMCs are outside the stated size and are skipped (the
   count is reported): about 4% of 600-iteration corpora identify
   5,000-8,000 PMCs and cost 10-40x a typical unit, and rare ones blow
   up (pipeline seed 240: 265,846 PMCs, over 96 s for one 16-trial
   test), which no run could finish in its time limit. *)
let max_pmcs = 4096

(* An upper estimate of the PMCs a corpus's identification can hold,
   from its profiles alone: distinct write sides times distinct read
   sides starting in the same or a neighbouring 8-byte bucket, which
   covers every overlapping pair [Core.Identify.run] considers. *)
let pmc_estimate (profiles : Core.Profile.t list) =
  let seen = Hashtbl.create 4096 in
  let writes = Hashtbl.create 1024 and reads = Hashtbl.create 1024 in
  let bump tbl b = Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)) in
  List.iter
    (fun (p : Core.Profile.t) ->
      Array.iter
        (fun (e : Core.Profile.entry) ->
          let a = e.Core.Profile.access in
          let key = (a.Vmm.Trace.kind, Core.Pmc.side_of_access a) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            bump (if a.Vmm.Trace.kind = Vmm.Trace.Write then writes else reads) (a.Vmm.Trace.addr asr 3)
          end)
        p.Core.Profile.entries)
    profiles;
  let r b = Option.value ~default:0 (Hashtbl.find_opt reads b) in
  Hashtbl.fold (fun b nw acc -> acc + (nw * (r (b - 1) + r b + r (b + 1)))) writes 0

let screen_envs = ref []

(* Fuzz and profile a candidate on a shared screening machine, outside
   any timing, so a corpus whose identification would take minutes and
   gigabytes is never handed to [Pipeline.prepare]. *)
let screened_out (cfg : P.config) =
  let env =
    match List.assoc_opt cfg.P.kernel !screen_envs with
    | Some env -> env
    | None ->
        let env = Sched.Exec.make_env cfg.P.kernel in
        screen_envs := (cfg.P.kernel, env) :: !screen_envs;
        env
  in
  let corpus, _ = P.fuzz ~seeds:cfg.P.seed_corpus env ~seed:cfg.P.seed ~iters:cfg.P.fuzz_iters in
  pmc_estimate (fst (P.profile_corpus env corpus)) > 64 * max_pmcs

(* Set up one campaign unit: [Pipeline.prepare], then the one-time
   warm-up the trial timings must not pay — warm-pool boots for the
   parallel runner and one untimed concurrent test, which touches the
   decoded image, the attribution cache and the snapshot's page
   tracking.  Returns the pipeline and the set-up seconds, or [None] for
   an identification beyond the workload's working-set bound. *)
let setup (w : Workload.t) cfg =
  (* one campaign per process as far as the span registry can tell, so
     the heap does not grow with the number of units run *)
  Obs.Span.reset ();
  let t0 = Measure.now_ns () in
  let t = P.prepare cfg in
  if Core.Identify.num_pmcs t.P.ident > max_pmcs then None
  else begin
    if w.Workload.domains > 1 then
      Vmm.Vmpool.prewarm (Sched.Exec.warm_pool cfg.P.kernel) w.Workload.domains;
    (match (P.plan_method t (List.hd w.Workload.methods) ~budget:1).Core.Select.tests with
    | ct :: _ ->
        ignore
          (P.run_one_test ~env:t.P.env ~ident:t.P.ident ~cfg ~kind:Sched.Explore.Snowboard
             ~prog_of_id:(P.prog_of_id t) ~index:1 ct)
    | [] -> ());
    Some (t, Measure.seconds_since t0)
  end

(* A candidate unit of a run's first round: screened, then set up. *)
let admit w cfg = if screened_out cfg then None else setup w cfg

(* Frontier and provenance accumulate notes, so every pass starts from
   fresh ones to keep its summary a function of the pass alone. *)
let fresh_notes (t : P.t) =
  {
    t with
    P.frontier = Harness.Frontier.create t.P.ident;
    prov = Harness.Provenance.create ~image:t.P.env.Sched.Exec.kern.Kernel.image
        ~ident:t.P.ident;
  }

type pass = {
  tests : int;
  failed : int;  (* supervised outcome not [Ok] *)
  trials : int;
  wall_s : float;
  cpu_s : float;
  gaps_ms : float list;  (* between consecutive on_result callbacks *)
  find_s : float;
  issues : int list;
  digest : string;  (* of the deterministic campaign summary *)
  stats : P.method_stats list;
}

(* The summary holds no wall-derived field today; any that appears later
   (a key ending in a time unit or a per-second rate) is dropped before
   digesting, so the reference pins findings, not timings. *)
let wall_key k =
  List.exists (Filename.check_suffix k) [ "_s"; "_ms"; "_us"; "_ns"; "_per_s" ]

let rec scrub = function
  | Obs.Export.Obj fields ->
      Obs.Export.Obj
        (List.filter_map
           (fun (k, v) -> if wall_key k then None else Some (k, scrub v))
           fields)
  | Obs.Export.List l -> Obs.Export.List (List.map scrub l)
  | j -> j

let summary_digest t stats issues =
  Harness.Report.json_summary ~pipeline:t ~stats ~found:[ ("campaign", issues) ] ()
  |> scrub |> Obs.Export.to_string |> Digest.string |> Digest.to_hex

(* One timed explore pass over every method of the workload.  [faults]
   injects a seeded fault plan (self-test only). *)
let explore ?faults ?(sup = Harness.Supervise.default) (w : Workload.t) t =
  let t = fresh_notes t in
  let sink =
    if w.Workload.durable then begin
      ensure_work_dir ();
      let fingerprint =
        Harness.Checkpoint.fingerprint ~cfg:t.P.cfg ~budget:w.Workload.budget
          ~methods:(List.map Core.Select.method_name w.Workload.methods)
          ()
      in
      Some
        (Harness.Checkpoint.create_sink
           ~path:(Filename.concat work_dir "journal.ck")
           ~fingerprint ~initial:[])
    end
    else None
  in
  let stamps = ref [] in
  let found = Hashtbl.create 16 in
  let t0 = Measure.now_ns () and c0 = Measure.cpu_s () in
  let run m =
    let name = Core.Select.method_name m in
    let on_result (r : P.test_result) =
      let now = Measure.now_ns () in
      stamps := now :: !stamps;
      List.iter
        (fun i -> if not (Hashtbl.mem found i) then Hashtbl.replace found i now)
        r.P.tr_issues;
      Option.iter (fun s -> Harness.Checkpoint.record s ~method_:name r) sink
    in
    if w.Workload.domains > 1 then
      Harness.Parallel.run_method ~domains:w.Workload.domains ?faults ~sup ~on_result
        t m ~budget:w.Workload.budget
    else P.run_method ?faults ~sup ~on_result t m ~budget:w.Workload.budget
  in
  let stats = List.map run w.Workload.methods in
  if w.Workload.durable then
    Harness.Provenance.write t.P.prov ~frontier:t.P.frontier
      (Filename.concat work_dir "provenance.json");
  let t1 = Measure.now_ns () and c1 = Measure.cpu_s () in
  let stamps = List.rev !stamps in
  let gaps_ms =
    snd
      (List.fold_left
         (fun (prev, acc) s -> (s, (float_of_int (s - prev) *. 1e-6) :: acc))
         (t0, []) stamps)
  in
  (* an issue-free pass is censored at its end *)
  let last_find = Hashtbl.fold (fun _ s acc -> max s acc) found 0 in
  let find_ns = if last_find = 0 then t1 - t0 else last_find - t0 in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let issues = P.issues_union stats in
  {
    tests = sum (fun s -> s.P.executed);
    failed = sum (fun s -> s.P.executed - s.P.outcomes.P.oc_ok);
    trials = sum (fun s -> s.P.total_trials);
    wall_s = float_of_int (t1 - t0) *. 1e-9;
    cpu_s = c1 -. c0;
    gaps_ms;
    find_s = float_of_int find_ns *. 1e-9;
    issues;
    digest = summary_digest t stats issues;
    stats;
  }

(* Re-execute every bug report's recorded interleaving and re-triage
   it: a finding the benchmark counts must reproduce from its report
   alone (paper section 6).  Returns the reports that did not. *)
let replay_failures (t : P.t) (stats : P.method_stats list) =
  List.concat_map
    (fun (s : P.method_stats) ->
      List.filter
        (fun (b : P.bug_report) ->
          match Sched.Replay.of_string b.P.br_replay with
          | None -> true
          | Some trace ->
              let race = Detectors.Race.create () in
              let observer =
                {
                  Sched.Exec.null_observer with
                  Sched.Exec.on_access = (fun a ~ctx -> Detectors.Race.on_access race a ~ctx);
                }
              in
              let res =
                Sched.Exec.run_conc t.P.env ~writer:b.P.br_writer ~reader:b.P.br_reader
                  ~policy:(Sched.Replay.replay trace) ~observer ()
              in
              let findings =
                Detectors.Oracle.analyze ~console:res.Sched.Exec.cc_console
                  ~races:(Detectors.Race.reports race)
                  ~deadlocked:res.Sched.Exec.cc_deadlocked
              in
              findings = [] || Detectors.Oracle.issues findings <> b.P.br_issues)
        s.P.bugs)
    stats

(* The correctness gate on a unit's first pass: every recorded finding
   replays, and unless [recording], the summary digest and issue set
   equal [reference], the unit's recorded ones.  Returns the failures. *)
let gate ?(recording = false) (t : P.t) p (reference : Refs.unit_ref option) =
  (if replay_failures t p.stats <> [] then [ "a recorded finding does not replay" ] else [])
  @
  match reference with
  | _ when recording -> []
  | None -> [ "no reference recorded (perfbench --record-refs)" ]
  | Some r when r.Refs.digest <> p.digest || r.Refs.issues <> p.issues ->
      [ "summary or issue set differs from the reference" ]
  | Some _ -> []
