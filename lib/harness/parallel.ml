(* Parallel campaign execution across OCaml domains.

   The paper distributed concurrent tests over a cloud platform through a
   lightweight work queue (section 4.4.1, "we integrate the execution
   platform with a lightweight distributed queue").  This is the
   single-machine analogue: the concurrent-test plan feeds the
   work-stealing pool ([Workpool]) and every worker leases a pre-booted
   guest VM from the process-wide warm pool ([Exec.warm_pool]) — built
   from the same kernel configuration, so all snapshots are identical —
   and the per-test results are merged through the same
   [Pipeline.stats_of_results] fold the sequential campaign uses.

   Per-test seeds derive from the test's global plan index and results
   land in per-index slots, so a parallel run explores exactly the same
   interleavings as the sequential one and finds exactly the same
   issues, whatever the worker count or steal schedule.

   Resilience: every test runs under [Pipeline.run_one_test]'s
   supervisor, and an exception that escapes it (a harness bug, an OOM
   kill of its VM, ...) costs exactly that test — the pool records it
   per item and the coordinator synthesizes a [Crashed] record for it. *)

module Exec = Sched.Exec

let prog_of_table (progs : (int, Fuzzer.Prog.t) Hashtbl.t) id =
  match Hashtbl.find_opt progs id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "parallel: unknown corpus id %d" id)

(* A planned test lost to a dead worker: synthesize a [Crashed] record
   so the campaign still accounts for it.  Deliberately NOT journaled
   as completed work — a resumed campaign re-runs it. *)
let crashed_result (index, (ct : Core.Select.conc_test)) exn =
  let detail = Supervise.describe exn in
  {
    Pipeline.tr_index = index;
    tr_hinted = ct.Core.Select.hint <> None;
    tr_outcome = Supervise.Crashed ("worker domain died: " ^ detail);
    tr_retries = 0;
    tr_exercised = false;
    tr_pmc_observed = false;
    tr_issues = [];
    tr_unknown = 0;
    tr_trials = 0;
    tr_steps = 0;
    tr_hint_hits = 0;
    tr_miss_no_write = 0;
    tr_miss_no_read = 0;
    tr_miss_value = 0;
    tr_prof = [];
    tr_bug = None;
  }

(* One worker domain per core, minus one for the coordinator.  The old
   hard cap of 4 silently throttled bigger machines; capping is now
   opt-in through SNOWBOARD_MAX_DOMAINS (or an explicit [~domains]). *)
let default_domains () =
  let recommended = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "SNOWBOARD_MAX_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some cap when cap >= 1 -> min cap recommended
      | _ -> recommended)
  | None -> recommended

(* Parallel analogue of [Pipeline.run_method].  The plan is built in the
   calling domain; execution fans out over [domains] workers. *)
let run_method ?(kind = Sched.Explore.Snowboard) ?domains ?sup ?faults
    ?(resume = fun _ -> None) ?(on_result = fun _ -> ())
    (t : Pipeline.t) method_ ~budget =
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  Obs.Telemetry.phase ("execute:" ^ Core.Select.method_name method_);
  let plan = Pipeline.plan_method t method_ ~budget in
  Provenance.note_plan t.Pipeline.prov
    ~method_:(Core.Select.method_name method_) ~plan;
  Obs.Profguest.set_phase (Some Obs.Profguest.Explore);
  (* snapshot the programs into a plain lookup the domains can share *)
  let progs : (int, Fuzzer.Prog.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Fuzzer.Corpus.entry) ->
      Hashtbl.replace progs e.Fuzzer.Corpus.id e.Fuzzer.Corpus.prog)
    (Fuzzer.Corpus.to_list t.Pipeline.corpus);
  let prog_of_id = prog_of_table progs in
  (* split the plan into already-journaled results and fresh work *)
  let indexed =
    List.mapi (fun i ct -> (i + 1, ct)) plan.Core.Select.tests
  in
  let stored, todo =
    List.partition_map
      (fun (index, ct) ->
        match resume index with
        | Some r -> Either.Left r
        | None -> Either.Right (index, ct))
      indexed
  in
  (* the journal sink is shared mutable state; serialize the callback *)
  let sink_mutex = Mutex.create () in
  let record r =
    Mutex.lock sink_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock sink_mutex) (fun () ->
        on_result r)
  in
  let since = Unix.gettimeofday () in
  let results =
    (* Workers lease warm VMs (boot only on a cold pool) and the plan
       rebalances itself across domains.  The steal-policy seed comes
       from the campaign seed purely for reproducible victim orders in
       traces; results are independent of it by construction. *)
    let pool = Exec.warm_pool t.Pipeline.cfg.Pipeline.kernel in
    Workpool.run ~jobs:domains ~seed:t.Pipeline.cfg.Pipeline.seed
      ~worker:(fun w -> Vmm.Vmpool.lease pool ~worker:w)
      ~finish:(fun w env -> Vmm.Vmpool.release pool ~worker:w env)
      ~f:(fun env _ (index, ct) ->
        let r =
          Pipeline.run_one_test ~env ~ident:t.Pipeline.ident
            ~cfg:t.Pipeline.cfg ~kind ?sup ?faults ~prog_of_id ~index ct
        in
        record r;
        r)
      ~fallback:(fun _ test exn -> crashed_result test exn)
      (Array.of_list todo)
    |> Array.to_list
  in
  Pipeline.note_throughput ~since results;
  let all = stored @ results in
  (* Frontier and provenance notes happen here on the coordinator, after
     the joins, in plan order — so the coverage table, the provenance
     artifact and the explore-phase flamegraph are byte-identical to the
     sequential runner's for any worker count. *)
  let ct_of_index = Hashtbl.create 64 in
  List.iter
    (fun (index, (ct : Core.Select.conc_test)) ->
      Hashtbl.replace ct_of_index index ct)
    indexed;
  List.iter
    (fun (r : Pipeline.test_result) ->
      match Hashtbl.find_opt ct_of_index r.Pipeline.tr_index with
      | Some ct -> Pipeline.note_result t ~method_ ct r
      | None -> ())
    (List.sort
       (fun (a : Pipeline.test_result) b ->
         compare a.Pipeline.tr_index b.Pipeline.tr_index)
       all);
  Obs.Profguest.set_phase None;
  Obs.Telemetry.tick ~tests:(List.length all) ();
  Pipeline.stats_of_results ~method_
    ~num_clusters:plan.Core.Select.num_clusters
    ~planned:(List.length plan.Core.Select.tests) all

let run_campaign ?domains ?sup ?faults t ~budget =
  List.map
    (fun m -> run_method ?domains ?sup ?faults t m ~budget)
    Core.Select.all_paper_methods
