(** Happens-before data-race detection over the serialized event stream
    (the role of the paper's stock detectors, DataCollider / SKI's
    runtime detector).

    {b Semantics.}  Vector clocks over [nthreads] guest threads (two for
    the paper's pairs, three for the section 6 relay).  Shadow state is
    per byte: the last write and, per thread, the last read.
    Synchronisation edges come from marked (atomic) store -> marked load
    pairs on the same byte: a marked store releases the storing thread's
    clock onto its bytes and a marked load acquires it.  This covers
    spinlocks (CAS acquire / marked release store), RCU
    publish/subscribe and READ_ONCE/WRITE_ONCE pairs.  Conflicting
    accesses (overlap, at least one write) that are unordered and not
    both marked are data races - the kernel's KCSAN convention.

    {b Reuse.}  The shadow is a flat table cached per domain and per
    thread count and reused across detectors: {!create} clears it in
    O(nthreads{^ 2}) by starting a new generation.  So at most one
    detector per domain is live.  Each {!create} retires the previous
    detector of its domain, whatever its thread count: feeding a retired
    detector raises [Invalid_argument], while its {!reports} and
    {!num_reports} stay readable.  A detector is fed on the domain that
    created it.  A shadow that one trial grew past a fixed slot limit is
    dropped at the next {!create}, so a pathological trial does not pin
    its memory.

    {b Cost.}  O(size) per access (one shadow slot per byte, expected
    O(1) probes), with no allocation per access and none per trial
    beyond the detector handle and its reports. *)

type report = {
  addr : int;  (** first racing byte *)
  write_pc : int;
  other_pc : int;
  other_kind : Vmm.Trace.kind;  (** the second access's kind *)
  write_ctx : string;  (** attributed kernel function of the write *)
  other_ctx : string;
}

type t

val create : ?nthreads:int -> unit -> t
(** A detector with empty state, for one concurrent trial; retires the
    domain's previous detector.  [nthreads] defaults to 2.
    @raise Invalid_argument unless [1 <= nthreads <= Vmm.Layout.max_threads]. *)

val on_access : t -> Vmm.Trace.access -> ctx:string -> unit
(** Feed one access with its attributed function.  Non-shared accesses
    (stack, user space) are ignored.
    @raise Invalid_argument if the detector is retired, or if a shared
    access comes from a thread outside [0 .. nthreads - 1]. *)

val reports : t -> report list
(** Reports in detection order, deduplicated by (write pc, other pc). *)

val num_reports : t -> int
