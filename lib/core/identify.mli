(** Algorithm 1: PMC identification.

    Shared accesses from all profiles are deduplicated into access entries
    keyed by (instruction, range, value), indexed by range start address
    (the paper's ordered nested index) and swept for write/read overlaps
    with differing projected values.  Each PMC carries a bounded set of
    (writer test, reader test) pairs. *)

val max_tests_per_entry : int
(** Representative tests remembered per deduplicated access entry. *)

val max_pairs_per_pmc : int
(** Test pairs stored per PMC (a few suffice; one is drawn at random); [npairs] still counts all of them. *)

type info = {
  mutable pairs : (int * int) list;  (** (writer test, reader test) *)
  mutable stored : int;  (** [List.length pairs], kept so the bounded
                             insert in the sweep stays O(1) *)
  mutable npairs : int;  (** total potential pairs, not just stored ones *)
}

type t = {
  table : (Pmc.t, info) Hashtbl.t;
  write_index : (int, Pmc.t list ref) Hashtbl.t;  (** write ins -> PMCs *)
  num_write_entries : int;
  num_read_entries : int;
}

val run : Profile.t list -> t

val num_pmcs : t -> int

val pairs : t -> Pmc.t -> (int * int) list
(** Stored test pairs of a PMC ([] if unknown). *)

val fold : (Pmc.t -> info -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Pmc.t -> info -> unit) -> t -> unit

val find_incidental :
  t ->
  writes:Vmm.Trace.access list ->
  reads:Vmm.Trace.access list ->
  exclude:(Pmc.t -> bool) ->
  Pmc.t list
(** Incidental-PMC discovery for Algorithm 2 line 26: identified PMCs,
    not excluded, whose write side matches one of [writes] and whose read
    side matches one of [reads].  Accesses of the wrong kind are ignored,
    so a thread's whole access list may be passed.

    Order and multiplicity are part of the contract: the result has one
    entry per (write, PMC) pair that matches, taken for [writes] in order
    and, per write, for the PMCs at its pc in [write_index] order, and is
    returned reversed (the last match first).  A PMC matched by two
    writes appears twice.  Explore adopts
    [List.nth l (Random.State.int rng (List.length l))], so any change to
    the order or the duplicates changes which PMC a trial adopts, and
    with it every later schedule.

    [exclude] must be pure: it is called only on full matches.  Cost:
    O(reads + writes x PMCs-at-pc + matches), where a match scans only
    the reads at the PMC's read instruction. *)
