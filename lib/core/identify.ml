(* Algorithm 1: PMC identification.

   All shared accesses from every profiled test are first deduplicated
   into "access entries" keyed by (instruction, range, value) - the exact
   features that make up a PMC side - remembering up to [max_tests]
   exhibiting tests per entry.  Entries are then indexed by range start
   (the paper's ordered nested index, section 4.2.1) and swept for
   write/read overlaps; each overlap whose projected values differ yields
   a PMC, stored with a bounded set of (writer test, reader test) pairs. *)

module Trace = Vmm.Trace

let m_considered = Obs.Metrics.counter "snowboard.core/pmc_pairs_considered"
let m_kept = Obs.Metrics.counter "snowboard.core/pmcs_kept"
let m_runs = Obs.Metrics.counter "snowboard.core/identify_runs"

let max_tests_per_entry = 3
let max_pairs_per_pmc = 8

type entry = {
  side : Pmc.side;
  mutable df : bool;  (* reads only: any occurrence was a df leader *)
  mutable tests : int list;
  mutable ntests : int;
}

type info = {
  mutable pairs : (int * int) list;  (* (writer test, reader test) *)
  mutable stored : int;  (* List.length pairs, tracked to keep the
                            bounded-insert check O(1) in the sweep *)
  mutable npairs : int;  (* total potential pairs, not just stored ones *)
}

type t = {
  table : (Pmc.t, info) Hashtbl.t;
  write_index : (int, Pmc.t list ref) Hashtbl.t;  (* write ins -> PMCs *)
  num_write_entries : int;
  num_read_entries : int;
}

let add_entry tbl (side : Pmc.side) ~df ~test =
  let key = (side.Pmc.ins, side.Pmc.addr, side.Pmc.size, side.Pmc.value) in
  match Hashtbl.find_opt tbl key with
  | Some e ->
      e.df <- e.df || df;
      if e.ntests < max_tests_per_entry && not (List.mem test e.tests) then begin
        e.tests <- test :: e.tests;
        e.ntests <- e.ntests + 1
      end
  | None -> Hashtbl.replace tbl key { side; df; tests = [ test ]; ntests = 1 }

(* Identify PMCs across a list of profiles. *)
let run (profiles : Profile.t list) =
  let writes : (int * int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let reads : (int * int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (p : Profile.t) ->
      Array.iter
        (fun (e : Profile.entry) ->
          let side = Pmc.side_of_access e.access in
          match e.access.Trace.kind with
          | Trace.Write -> add_entry writes side ~df:false ~test:p.test_id
          | Trace.Read -> add_entry reads side ~df:e.df_leader ~test:p.test_id)
        p.entries)
    profiles;
  let warr = Array.of_seq (Hashtbl.to_seq_values writes) in
  let rarr = Array.of_seq (Hashtbl.to_seq_values reads) in
  let by_addr (a : entry) (b : entry) = compare a.side.Pmc.addr b.side.Pmc.addr in
  Array.sort by_addr warr;
  Array.sort by_addr rarr;
  let table = Hashtbl.create 4096 in
  let write_index = Hashtbl.create 1024 in
  let nr = Array.length rarr in
  (* For each write entry, scan read entries whose start address can
     overlap: starts in (w.addr - 8, w.addr + w.size). *)
  let lower_bound target =
    let lo = ref 0 and hi = ref nr in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if rarr.(mid).side.Pmc.addr < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let considered = ref 0 in
  Array.iter
    (fun (w : entry) ->
      let ws = w.side in
      let start = lower_bound (ws.Pmc.addr - 7) in
      let i = ref start in
      while !i < nr && rarr.(!i).side.Pmc.addr < ws.Pmc.addr + ws.Pmc.size do
        let r = rarr.(!i) in
        incr i;
        incr considered;
        let rs = r.side in
        if Pmc.values_differ ws rs then begin
          let pmc = Pmc.make ~write:ws ~read:rs ~df_leader:r.df in
          let info =
            match Hashtbl.find_opt table pmc with
            | Some info -> info
            | None ->
                let info = { pairs = []; stored = 0; npairs = 0 } in
                Hashtbl.replace table pmc info;
                (match Hashtbl.find_opt write_index ws.Pmc.ins with
                | Some l -> l := pmc :: !l
                | None -> Hashtbl.replace write_index ws.Pmc.ins (ref [ pmc ]));
                info
          in
          List.iter
            (fun wt ->
              List.iter
                (fun rt ->
                  info.npairs <- info.npairs + 1;
                  if info.stored < max_pairs_per_pmc then begin
                    info.pairs <- (wt, rt) :: info.pairs;
                    info.stored <- info.stored + 1
                  end)
                r.tests)
            w.tests
        end
      done)
    warr;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_considered !considered;
  Obs.Metrics.add m_kept (Hashtbl.length table);
  {
    table;
    write_index;
    num_write_entries = Array.length warr;
    num_read_entries = nr;
  }

let num_pmcs t = Hashtbl.length t.table

let pairs t pmc =
  match Hashtbl.find_opt t.table pmc with Some i -> i.pairs | None -> []

let fold f t init = Hashtbl.fold f t.table init

let iter f t = Hashtbl.iter f t.table

(* Incidental-PMC discovery for Algorithm 2 line 26: PMCs (other than
   those already under test) whose write side appears among one thread's
   accesses and whose read side appears among the other thread's.

   The reads are indexed by pc once per call, so a PMC whose write side
   matched looks only at the reads at its own read instruction, and the
   caller's [exclude] runs last, on full matches only.  The result is
   still what a scan of every (write, PMC at its pc, read) triple gives,
   in the same order and with the same duplicates (see the interface). *)
module Int_tbl = Hashtbl.Make (Int)

let find_incidental t ~(writes : Trace.access list) ~(reads : Trace.access list)
    ~(exclude : Pmc.t -> bool) =
  let reads_at = Int_tbl.create 64 in
  List.iter
    (fun (r : Trace.access) ->
      if r.Trace.kind = Trace.Read then
        Int_tbl.replace reads_at r.Trace.pc
          (r :: Option.value ~default:[] (Int_tbl.find_opt reads_at r.Trace.pc)))
    reads;
  let found = ref [] in
  List.iter
    (fun (w : Trace.access) ->
      if w.Trace.kind = Trace.Write then
        match Hashtbl.find_opt t.write_index w.Trace.pc with
        | None -> ()
        | Some pmcs ->
            List.iter
              (fun (pmc : Pmc.t) ->
                if Pmc.matches_write pmc w then
                  match Int_tbl.find_opt reads_at pmc.Pmc.read.Pmc.ins with
                  | Some rs
                    when List.exists (Pmc.matches_read pmc) rs && not (exclude pmc) ->
                      found := pmc :: !found
                  | _ -> ())
              !pmcs)
    writes;
  !found
