(* Brute-force happens-before reference for the race detector.

   Takes the whole serialized stream at once.  Every shared event gets a
   full vector clock: its own component counts its thread's events, and a
   marked read joins the clocks of every earlier marked write it overlaps
   (the release/acquire edges [Detectors.Race] uses).  Event [i] happens
   before a later event [j] of another thread iff [i]'s own component is
   at most [j]'s view of that thread.  Every unordered conflicting byte
   pair (other threads, at least one write, not both marked) is listed in
   the detector's report shape: the write's pc first; for two writes, the
   later one's. *)

module Trace = Vmm.Trace

type pair = { addr : int; write_pc : int; other_pc : int; other_kind : Trace.kind }

let races ~nthreads (stream : Trace.access list) =
  let evs = Array.of_list (List.filter Trace.is_shared stream) in
  let m = Array.length evs in
  let cur = Array.init nthreads (fun _ -> Array.make nthreads 0) in
  let clock = Array.make m [||] in
  Array.iteri
    (fun j (e : Trace.access) ->
      let c = cur.(e.thread) in
      c.(e.thread) <- c.(e.thread) + 1;
      if e.atomic && e.kind = Trace.Read then
        for i = 0 to j - 1 do
          let w = evs.(i) in
          if w.atomic && w.kind = Trace.Write && Trace.overlaps w e then
            Array.iteri (fun k v -> if v > c.(k) then c.(k) <- v) clock.(i)
        done;
      clock.(j) <- Array.copy c)
    evs;
  let out = ref [] in
  for j = 0 to m - 1 do
    for i = 0 to j - 1 do
      let a = evs.(i) and b = evs.(j) in
      if
        a.thread <> b.thread
        && (a.kind = Trace.Write || b.kind = Trace.Write)
        && (not (a.atomic && b.atomic))
        && clock.(i).(a.thread) > clock.(j).(a.thread)
      then
        for addr = max a.addr b.addr to min (a.addr + a.size) (b.addr + b.size) - 1 do
          let p =
            if b.kind = Trace.Write then
              { addr; write_pc = b.pc; other_pc = a.pc; other_kind = a.kind }
            else { addr; write_pc = a.pc; other_pc = b.pc; other_kind = Trace.Read }
          in
          out := p :: !out
        done
    done
  done;
  List.rev !out
