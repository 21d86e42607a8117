(* The traced run: rebuilds each campaign step from the layers' public
   functions, in the order [Sched.Explore.run] and [Pipeline.prepare]
   call them, and records a span around every call.  Spans are kept in
   memory; a layer's self time is its span minus the spans nested in
   it.  Every rebuilt trial is checked against [Explore.run] for the
   same (test, trial, seed), so the per-layer numbers describe the work
   the campaign really does. *)

module P = Harness.Pipeline
module E = Sched.Explore

(* ---------------- spans ---------------- *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int; words : float }

let spans = ref []
let next_id = ref 0
let stack = ref [ -1 ]

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  let r = f () in
  let t1 = Measure.now_ns () in
  let w1 = Gc.minor_words () in
  stack := List.tl !stack;
  spans := { id; parent; name; t0; t1; words = w1 -. w0 } :: !spans;
  r

type self = { mutable n : int; mutable ns : int; mutable w : float }

(* Self time and self allocation per span name. *)
let self_by_name () =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let ns, w = Option.value ~default:(0, 0.) (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent (ns + s.t1 - s.t0, w +. s.words))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let cns, cw = Option.value ~default:(0, 0.) (Hashtbl.find_opt children s.id) in
      let a =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            let a = { n = 0; ns = 0; w = 0. } in
            Hashtbl.replace by_name s.name a;
            a
      in
      a.n <- a.n + 1;
      a.ns <- a.ns + (s.t1 - s.t0 - cns);
      a.w <- a.w +. (s.words -. cw))
    !spans;
  fun name -> Option.value ~default:{ n = 0; ns = 0; w = 0. } (Hashtbl.find_opt by_name name)

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tparent\tname\tstart_ns\tend_ns\tminor_words\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%.0f\n" s.id s.parent s.name s.t0 s.t1 s.words)
        (List.rev !spans))

let time_ns f =
  let t0 = Measure.now_ns () in
  let r = f () in
  (r, Measure.now_ns () - t0)

let counter name = Option.value ~default:0 (Obs.Metrics.value_by_name name)

(* ---------------- set-up rebuild ---------------- *)

type setup_tally = { mutable progs : int; mutable accepted : int }

let tally = { progs = 0; accepted = 0 }

(* [Pipeline.fuzz] without a seed corpus, from its public parts. *)
let rebuild_fuzz (env : Sched.Exec.env) ~seed ~iters =
  let rng = Random.State.make [| seed |] in
  let corpus = Fuzzer.Corpus.create () in
  for _ = 1 to iters do
    let prog =
      span "fuzzer" (fun () ->
          if Random.State.int rng 3 = 0 || Fuzzer.Corpus.size corpus = 0 then
            Fuzzer.Gen.generate rng
          else Fuzzer.Gen.mutate rng (Fuzzer.Corpus.sample corpus rng).Fuzzer.Corpus.prog)
    in
    let r = span "exec.seq" (fun () -> Sched.Exec.run_seq env ~tid:0 prog) in
    tally.progs <- tally.progs + 1;
    if not r.Sched.Exec.sq_panicked then
      span "fuzzer" (fun () ->
          match Fuzzer.Corpus.consider corpus prog ~edges:r.Sched.Exec.sq_edges with
          | Some _ -> tally.accepted <- tally.accepted + 1
          | None -> ())
  done;
  corpus

(* Rebuild the set-up of a prepared unit; true when it reproduces the
   unit's corpus and identification. *)
let rebuild_setup (w : Workload.t) (t : P.t) =
  let corpus = rebuild_fuzz t.P.env ~seed:t.P.cfg.P.seed ~iters:w.Workload.fuzz_iters in
  let ident = span "core.identify" (fun () -> Core.Identify.run t.P.profiles) in
  List.iter
    (fun m -> ignore (span "core.select" (fun () -> P.plan_method t m ~budget:w.Workload.budget)))
    w.Workload.methods;
  let progs c = List.map (fun (e : Fuzzer.Corpus.entry) -> e.Fuzzer.Corpus.prog) (Fuzzer.Corpus.to_list c) in
  progs corpus = progs t.P.corpus
  && Fuzzer.Corpus.total_edges corpus = Fuzzer.Corpus.total_edges t.P.corpus
  && Core.Identify.num_pmcs ident = Core.Identify.num_pmcs t.P.ident

(* ---------------- trial rebuild ---------------- *)

type trial_tally = {
  mutable trials : int;
  mutable hinted_trials : int;
  mutable hint_hits : int;
  mutable pmcs : int;  (* current_pmcs length summed over trials *)
  mutable pages : int;
  mutable instr : int;
  mutable accesses : int;
}

let tt = { trials = 0; hinted_trials = 0; hint_hits = 0; pmcs = 0; pages = 0; instr = 0; accesses = 0 }

(* The layer spans whose self times should account for [Explore.run]. *)
let layers =
  [
    "sched.policy"; "replay.record"; "vmm.restore"; "exec.conc"; "detectors.race";
    "detectors.oracle"; "explore.verdict"; "explore.incidental"; "replay.finish";
  ]

(* One test's trials, rebuilt as [Explore.run ~stop_on_bug:false] runs
   them; true when every trial and tally matches [expected]. *)
let rebuild_test (env : Sched.Exec.env) ~ident ~(writer : Fuzzer.Prog.t) ~reader ~hint ~kind
    ~trials ~seed (expected : E.result) =
  let st = Sched.Policies.snowboard_state hint in
  let hits = ref 0 and no_write = ref 0 and no_read = ref 0 and value = ref 0 in
  let any_exercised = ref false and any_pmc_observed = ref false in
  let rebuilt =
    List.init trials (fun trial ->
        span "trial" @@ fun () ->
        tt.trials <- tt.trials + 1;
        tt.pmcs <- tt.pmcs + List.length st.Sched.Policies.current_pmcs;
        let rng = Random.State.make [| seed + trial |] in
        let policy =
          span "sched.policy" (fun () ->
              match kind with
              | E.Snowboard -> Sched.Policies.snowboard rng st
              | E.Naive period -> Sched.Policies.naive rng ~period
              | E.Ski | E.Pct _ -> invalid_arg "traced: unsupported scheduler")
        in
        let recorder = span "replay.record" (fun () -> Sched.Replay.record policy) in
        let pages0 = counter "snowboard.vmm/pages_restored" in
        span "vmm.restore" (fun () -> Vmm.Vm.restore env.Sched.Exec.vm env.Sched.Exec.snap);
        tt.pages <- tt.pages + counter "snowboard.vmm/pages_restored" - pages0;
        let buf = ref [] in
        let observer =
          { Sched.Exec.default_observer with Sched.Exec.on_access = (fun a ~ctx -> buf := (a, ctx) :: !buf) }
        in
        let res =
          span "exec.conc" (fun () ->
              Sched.Exec.run_conc env ~writer ~reader ~policy:recorder.Sched.Replay.policy ~observer ())
        in
        tt.instr <- tt.instr + res.Sched.Exec.cc_steps;
        tt.accesses <- tt.accesses + List.length !buf;
        let races =
          span "detectors.race" (fun () ->
              let race = Detectors.Race.create () in
              List.iter (fun (a, ctx) -> Detectors.Race.on_access race a ~ctx) (List.rev !buf);
              Detectors.Race.reports race)
        in
        let findings, issues =
          span "detectors.oracle" (fun () ->
              let f =
                Detectors.Oracle.analyze ~console:res.Sched.Exec.cc_console ~races
                  ~deadlocked:res.Sched.Exec.cc_deadlocked
              in
              (f, Detectors.Oracle.issues f))
        in
        let exercised =
          span "explore.verdict" (fun () ->
              let ex = E.channel_exercised hint res in
              (match hint with
              | None -> ()
              | Some _ when ex -> incr hits
              | Some pmc ->
                  let reason = E.classify_miss pmc res in
                  if reason == E.miss_reason_no_write then incr no_write
                  else if reason == E.miss_reason_no_read then incr no_read
                  else incr value);
              ex)
        in
        if hint <> None then tt.hinted_trials <- tt.hinted_trials + 1;
        if exercised then any_exercised := true;
        span "explore.incidental" (fun () ->
            let accesses tid k =
              List.filter (fun a -> a.Vmm.Trace.kind = k) res.Sched.Exec.cc_accesses.(tid)
            in
            let exclude p = List.exists (Core.Pmc.equal p) st.Sched.Policies.current_pmcs in
            let incidental =
              Core.Identify.find_incidental ident ~writes:(accesses 0 Vmm.Trace.Write)
                ~reads:(accesses 1 Vmm.Trace.Read) ~exclude
              @ Core.Identify.find_incidental ident ~writes:(accesses 1 Vmm.Trace.Write)
                  ~reads:(accesses 0 Vmm.Trace.Read) ~exclude
            in
            if incidental <> [] then begin
              let reads = accesses 0 Vmm.Trace.Read @ accesses 1 Vmm.Trace.Read in
              if
                List.exists
                  (fun p ->
                    List.exists
                      (fun a ->
                        Core.Pmc.matches_read p a
                        && a.Vmm.Trace.value <> p.Core.Pmc.read.Core.Pmc.value)
                      reads)
                  incidental
              then any_pmc_observed := true;
              if kind = E.Snowboard then
                Sched.Policies.add_pmc st
                  (List.nth incidental (Random.State.int rng (List.length incidental)))
            end);
        (* [Explore.run] finishes every trial's recording but prints only
           a bug report's, so printing stays outside the span *)
        let replay = span "replay.finish" (fun () -> recorder.Sched.Replay.finish ()) in
        (res.Sched.Exec.cc_steps, findings, issues, exercised, replay))
  in
  tt.hint_hits <- tt.hint_hits + !hits;
  List.length expected.E.trials = trials
  && List.for_all2
       (fun (steps, findings, issues, exercised, replay) (e : E.trial) ->
         steps = e.E.steps && findings = e.E.findings && issues = e.E.issues
         && exercised = e.E.exercised
         && Sched.Replay.to_string replay = Sched.Replay.to_string e.E.replay)
       rebuilt expected.E.trials
  && !hits = expected.E.hint_hits && !no_write = expected.E.miss_no_write
  && !no_read = expected.E.miss_no_read && !value = expected.E.miss_value
  && !any_exercised = expected.E.any_exercised
  && (!any_pmc_observed || !any_exercised) = expected.E.any_pmc_observed

(* ---------------- the traced run ---------------- *)

type harness_tally = {
  mutable tests : int;
  mutable mismatched : int;  (* tests whose rebuild differs from Explore.run *)
  mutable explore_ns : int;  (* Explore.run, untraced *)
  mutable steals : int;
  mutable idle_scans : int;
  mutable lease_hits : int;
  mutable leases : int;
  mutable parallel_passes : int;
}

let ht =
  {
    tests = 0; mismatched = 0; explore_ns = 0; steals = 0; idle_scans = 0;
    lease_hits = 0; leases = 0; parallel_passes = 0;
  }

(* Harness-side counters over one untraced pass of the unit on two
   domains, journaled, as an unattended campaign runs; at least four
   tests per method, so the pool has work to steal. *)
let parallel_counters (w : Workload.t) t =
  let w = { w with Workload.domains = 2; durable = true; budget = max w.Workload.budget 4 } in
  let read () =
    ( counter "snowboard.harness/steals",
      (match Obs.Metrics.hist_buckets_by_name "snowboard.harness/idle_scans" with
      | Some h -> h.Obs.Metrics.hb_sum
      | None -> 0),
      counter "snowboard.vmm/vm_reuse_hits",
      counter "snowboard.vmm/vm_reuse_misses" + counter "snowboard.vmm/vm_lease_transfers" )
  in
  let s0, i0, h0, o0 = read () in
  ignore (Campaign.explore w t);
  let s1, i1, h1, o1 = read () in
  ht.steals <- ht.steals + s1 - s0;
  ht.idle_scans <- ht.idle_scans + i1 - i0;
  ht.lease_hits <- ht.lease_hits + h1 - h0;
  ht.leases <- ht.leases + (h1 - h0) + (o1 - o0);
  ht.parallel_passes <- ht.parallel_passes + 1

(* A unit's tests, round robin across methods, so a run cut short by
   its time limit still samples every method. *)
let interleave (t : P.t) (w : Workload.t) =
  let plans =
    List.map
      (fun m -> List.mapi (fun i ct -> (m, i + 1, ct)) (P.plan_method t m ~budget:w.Workload.budget).Core.Select.tests)
      w.Workload.methods
  in
  let rec go acc = function
    | [] -> List.rev acc
    | plans ->
        let heads = List.filter_map (function x :: _ -> Some x | [] -> None) plans in
        go (List.rev_append heads acc) (List.filter_map (function _ :: r when r <> [] -> Some r | _ -> None) plans)
  in
  go [] plans

let trace_test (t : P.t) notes sink (m, index, (ct : Core.Select.conc_test)) =
  let kind = match ct.Core.Select.hint with Some _ -> E.Snowboard | None -> E.Naive 8 in
  let seed = t.P.cfg.P.seed + (1000 * index) in
  let writer = P.prog_of_id t ct.Core.Select.writer and reader = P.prog_of_id t ct.Core.Select.reader in
  let trials = t.P.cfg.P.trials_per_test in
  let explore () =
    E.run t.P.env ~ident:(Some t.P.ident) ~writer ~reader ~hint:ct.Core.Select.hint ~kind ~trials
      ~seed ~stop_on_bug:false ()
  in
  let res, ex_ns = time_ns explore in
  ht.explore_ns <- ht.explore_ns + ex_ns;
  (* what [run_one_test] adds around [Explore.run]: the supervisor and
     the result record's issue, finding and bug-report extraction *)
  span "harness.supervise" (fun () ->
      let sv = Harness.Supervise.run ~seed (fun ~attempt:_ -> res) in
      Option.iter
        (fun res ->
          ignore (E.issues_found res);
          ignore (List.filter (fun (f : Detectors.Oracle.finding) -> f.Detectors.Oracle.issue = None) (E.findings_found res));
          ignore (P.bug_of_result ~test_idx:index ~writer ~reader res))
        sv.Harness.Supervise.sv_result);
  let r =
    P.run_one_test ~env:t.P.env ~ident:t.P.ident ~cfg:t.P.cfg ~kind:E.Snowboard
      ~prog_of_id:(P.prog_of_id t) ~index ct
  in
  ht.tests <- ht.tests + 1;
  if
    r.P.tr_issues <> E.issues_found res
    || not
         (rebuild_test t.P.env ~ident:t.P.ident ~writer ~reader ~hint:ct.Core.Select.hint ~kind
            ~trials ~seed res)
  then ht.mismatched <- ht.mismatched + 1;
  span "harness.note" (fun () -> P.note_result notes ~method_:m ct r);
  span "harness.journal" (fun () ->
      Harness.Checkpoint.record sink ~method_:(Core.Select.method_name m) r)

(* Untraced [Explore.run] time of the traced tests is the base of both
   trace ratios: the layers' self times should add up to it, and the
   rebuilt trials' total is compared with it for the tracing cost. *)
let metrics () =
  let s = self_by_name () in
  let n = float_of_int (max 1 tt.trials) in
  let per_trial_us name = float_of_int (s name).ns /. n /. 1e3 in
  let per_call name scale =
    let a = s name in
    float_of_int a.ns /. float_of_int (max 1 a.n) /. scale
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let layer_ns = List.fold_left (fun acc l -> acc + (s l).ns) 0 layers in
  let trial_ns = (s "trial").ns + layer_ns in
  let m = Outcome.m in
  [
    m "vmm.restore_us" "us" (per_trial_us "vmm.restore");
    m "vmm.pages_restored" "page" (float_of_int tt.pages /. n);
    m "vmm.lease_hit_ratio" "ratio" (ratio ht.lease_hits ht.leases);
    m "exec.conc_us" "us" (per_trial_us "exec.conc");
    m "exec.conc_words" "words" ((s "exec.conc").w /. n);
    m "exec.conc_instr" "instr" (float_of_int tt.instr /. n);
    m "exec.instr_per_s" "instr/s" (ratio tt.instr (s "exec.conc").ns *. 1e9);
    m "exec.seq_us" "us" (per_call "exec.seq" 1e3);
    m "race.us" "us" (per_trial_us "detectors.race");
    m "race.words" "words" ((s "detectors.race").w /. n);
    m "race.accesses" "access" (float_of_int tt.accesses /. n);
    m "race.ns_per_access" "ns" (ratio (s "detectors.race").ns tt.accesses);
    m "oracle.us" "us" (per_trial_us "detectors.oracle");
    m "explore.verdict_us" "us" (per_trial_us "explore.verdict");
    m "explore.incidental_us" "us" (per_trial_us "explore.incidental");
    m "explore.words" "words" (((s "explore.verdict").w +. (s "explore.incidental").w) /. n);
    m "explore.hint_hit_ratio" "ratio" (ratio tt.hint_hits tt.hinted_trials);
    m "explore.pmcs_under_test" "pmc" (float_of_int tt.pmcs /. n);
    m "replay.us" "us" (per_trial_us "replay.finish");
    m "fuzz.us_per_prog" "us" (float_of_int (s "fuzzer").ns /. float_of_int (max 1 tally.progs) /. 1e3);
    m "fuzz.accept_ratio" "ratio" (ratio tally.accepted tally.progs);
    m "identify.ms" "ms" (per_call "core.identify" 1e6);
    m "select.plan_ms" "ms" (per_call "core.select" 1e6);
    m "harness.supervise_us" "us" (per_call "harness.supervise" 1e3);
    m "harness.note_us" "us" (per_call "harness.note" 1e3);
    m "harness.journal_us" "us" (per_call "harness.journal" 1e3);
    m "harness.steals" "count" (ratio ht.steals ht.parallel_passes);
    m "harness.idle_scans" "count" (ratio ht.idle_scans ht.parallel_passes);
    m "trace.unattributed_frac" "ratio" (1. -. ratio layer_ns ht.explore_ns);
    m "trace.overhead_frac" "ratio" (1. -. ratio ht.explore_ns trial_ns);
  ]

let reset () =
  spans := [];
  next_id := 0;
  stack := [ -1 ];
  tally.progs <- 0;
  tally.accepted <- 0;
  tt.trials <- 0;
  tt.hinted_trials <- 0;
  tt.hint_hits <- 0;
  tt.pmcs <- 0;
  tt.pages <- 0;
  tt.instr <- 0;
  tt.accesses <- 0;
  ht.tests <- 0;
  ht.mismatched <- 0;
  ht.explore_ns <- 0;
  ht.steals <- 0;
  ht.idle_scans <- 0;
  ht.lease_hits <- 0;
  ht.leases <- 0;
  ht.parallel_passes <- 0

(* [candidates j] is the configuration of candidate unit [j] ([None]:
   no more); by default the workload's.  Each unit traced also makes one
   untraced pass, outside every span, which must pass [Campaign.gate]
   against the unit's reference, as in an untraced run; [check_refs]
   false skips that pass (a configuration with no recorded reference). *)
let run ?candidates ?(check_refs = true) (w : Workload.t) ~seed ~seconds =
  let candidates =
    Option.value candidates ~default:(fun j -> Some (Workload.config w ~seed j))
  in
  let refs = Refs.find (Refs.load ()) ~workload:w.Workload.name ~seed in
  reset ();
  let t0 = Measure.now_ns () in
  Campaign.ensure_work_dir ();
  let sink =
    Harness.Checkpoint.create_sink
      ~path:(Filename.concat Campaign.work_dir "traced.ck")
      ~fingerprint:"perfbench-traced" ~initial:[]
  in
  let setup_mismatch = ref 0 in
  let errors = ref [] in
  let rec units u cand =
    if u < w.Workload.units && (ht.tests = 0 || Measure.seconds_since t0 < seconds) then
      match Option.map (Campaign.admit w) (candidates cand) with
      | None -> ()
      | Some None -> units u (cand + 1)
      | Some (Some (t, _)) ->
          if check_refs then
            List.iter
              (fun e -> errors := Printf.sprintf "gate: unit %d: %s" u e :: !errors)
              (Campaign.gate t (Campaign.explore w t) (Refs.unit_ refs u));
          if not (rebuild_setup w t) then incr setup_mismatch;
          if ht.parallel_passes = 0 then parallel_counters w t;
          let notes = Campaign.fresh_notes t in
          List.iter
            (fun test ->
              if ht.tests = 0 || Measure.seconds_since t0 < seconds then trace_test t notes sink test)
            (interleave t w);
          units (u + 1) (cand + 1)
  in
  units 0 0;
  let metrics = metrics () in
  (* one file per workload, replaced by each run, so repeated runs do
     not pile up tens of megabytes each *)
  let path = Filename.concat Campaign.work_dir (Printf.sprintf "spans-%s.tsv" w.Workload.name) in
  write_spans path;
  let correct = ht.mismatched = 0 && !setup_mismatch = 0 && !errors = [] in
  {
    Outcome.correct;
    attempted = ht.tests;
    failed = (if !errors = [] then ht.mismatched else ht.tests);
    metrics;
    extra = [];
    notes =
      [
        Printf.sprintf "traced %d tests, %d trials; %d rebuilt tests and %d rebuilt set-ups differ from the campaign's"
          ht.tests tt.trials ht.mismatched !setup_mismatch;
        (if check_refs then "every traced unit's untraced pass was checked against references.json"
         else "no reference for this configuration: trace fidelity checked, findings not");
        "spans written to " ^ path;
      ]
      @ List.rev !errors;
  }
