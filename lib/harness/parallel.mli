(** Parallel campaign execution over OCaml domains: the single-machine
    analogue of the paper's distributed work queue (section 4.4.1).  The
    plan feeds the work-stealing pool ({!Workpool}); every worker leases
    a pre-booted guest VM from the warm pool ({!Sched.Exec.warm_pool});
    the per-test seed derives from the global plan index and results
    land in per-index slots, so the parallel run finds exactly the same
    issues — and renders byte-identical artifacts — as
    {!Pipeline.run_method}, for any worker count or steal schedule.

    Resilience: tests run under {!Pipeline.run_one_test}'s supervisor,
    and an exception escaping it costs exactly that test (recorded as
    [Crashed]). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): one worker
    per core, minus the coordinator.  No built-in cap — big machines
    get all their cores; set [SNOWBOARD_MAX_DOMAINS] (or pass
    [~domains]) to throttle. *)

val prog_of_table : (int, Fuzzer.Prog.t) Hashtbl.t -> int -> Fuzzer.Prog.t
(** Lookup in the shared program snapshot; raises [Invalid_argument]
    naming the id if unknown (mirrors {!Pipeline.prog_of_id}). *)

val crashed_result :
  int * Core.Select.conc_test -> exn -> Pipeline.test_result
(** The [Crashed] record synthesized for a planned test whose worker
    died.  Not journaled as completed work, so a resumed campaign
    re-runs it. *)

val run_method :
  ?kind:Sched.Explore.kind ->
  ?domains:int ->
  ?sup:Supervise.policy ->
  ?faults:Sched.Fault.plan ->
  ?resume:(int -> Pipeline.test_result option) ->
  ?on_result:(Pipeline.test_result -> unit) ->
  Pipeline.t ->
  Core.Select.method_ ->
  budget:int ->
  Pipeline.method_stats
(** Parallel analogue of {!Pipeline.run_method}, same optional
    supervision/fault/checkpoint hooks.  [on_result] is serialized
    under a mutex. *)

val run_campaign :
  ?domains:int ->
  ?sup:Supervise.policy ->
  ?faults:Sched.Fault.plan ->
  Pipeline.t ->
  budget:int ->
  Pipeline.method_stats list
