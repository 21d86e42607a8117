(* Happens-before data-race detection over the serialized event stream.

   Plays the role of the paper's stock race detector (DataCollider / the
   SKI runtime detector).  The executor serializes the kernel threads, so
   true simultaneity never occurs; instead we maintain FastTrack-style
   vector clocks over [nthreads] threads and report conflicting accesses
   that are not ordered by synchronization:

   - marked (atomic) store -> marked load of the same cell creates a
     release/acquire edge.  This covers spinlocks (CAS acquire loops and
     marked release stores), RCU publish (rcu_assign_pointer followed by
     rcu_dereference) and READ_ONCE/WRITE_ONCE pairs, so correctly
     synchronised code produces no reports;
   - conflicting accesses (overlapping ranges, at least one write) that
     are unordered AND not both marked are data races, mirroring the
     kernel's KCSAN convention that marked-vs-marked conflicts are
     intentional.

   State lives in one flat shadow per domain and thread count, reused
   across trials: a campaign runs thousands of trials a second, and
   building fresh tables for each cost more than the checks themselves.
   A slot is valid only while its stamp equals the shadow's generation,
   so [create] clears the whole shadow by bumping one counter. *)

module Trace = Vmm.Trace

type report = {
  addr : int;
  write_pc : int;
  other_pc : int;
  other_kind : Trace.kind;  (* the second access's kind *)
  write_ctx : string;  (* attributed kernel function of the write *)
  other_ctx : string;
}

(* The shadow: byte address -> slot by open addressing with linear
   probing, as parallel arrays.  Per-thread fields of slot [s] sit at
   [s * n + thread].  A slot whose stamp is not the current generation is
   empty; there are no deletions within a generation. *)
type shadow = {
  n : int;  (* threads *)
  mutable gen : int;
  mutable bits : int;  (* log2 of the slot count *)
  mutable used : int;
  mutable key : int array;  (* byte address *)
  mutable stamp : int array;
  (* last write; [w_tid] = -1 when the byte has not been written *)
  mutable w_tid : int array;
  mutable w_clk : int array;
  mutable w_pc : int array;
  mutable w_ctx : string array;
  (* last read per thread; [r_clk] = 0 when that thread has not read *)
  mutable r_clk : int array;
  mutable r_pc : int array;
  mutable r_ctx : string array;
  (* release clock per thread component, all zero until a marked store *)
  mutable rel : int array;
  (* bit 0: last write marked; bit 1 + t: thread t's last read marked *)
  mutable marked : Bytes.t;
  (* per-thread vector clocks, thread [t]'s at [t * n] *)
  vcs : int array;
  (* report dedup set over (write pc, other pc), same stamping *)
  mutable d_bits : int;
  mutable d_used : int;
  mutable d_w : int array;
  mutable d_o : int array;
  mutable d_stamp : int array;
}

(* 4096 slots hold 2048 bytes at the maximum load of one half, more than
   a campaign trial shadows; a shadow grown past [max_slots] by one
   pathological trial is dropped at the next [create]. *)
let initial_bits = 12
let max_slots = 1 lsl 16
let initial_d_bits = 6

let alloc_slots sh bits =
  let cap = 1 lsl bits and n = sh.n in
  sh.bits <- bits;
  sh.used <- 0;
  sh.key <- Array.make cap 0;
  sh.stamp <- Array.make cap 0;
  sh.w_tid <- Array.make cap (-1);
  sh.w_clk <- Array.make cap 0;
  sh.w_pc <- Array.make cap 0;
  sh.w_ctx <- Array.make cap "";
  sh.r_clk <- Array.make (cap * n) 0;
  sh.r_pc <- Array.make (cap * n) 0;
  sh.r_ctx <- Array.make (cap * n) "";
  sh.rel <- Array.make (cap * n) 0;
  sh.marked <- Bytes.make cap '\000'

let alloc_dedup sh bits =
  let cap = 1 lsl bits in
  sh.d_bits <- bits;
  sh.d_used <- 0;
  sh.d_w <- Array.make cap 0;
  sh.d_o <- Array.make cap 0;
  sh.d_stamp <- Array.make cap 0

let fresh_shadow n =
  let sh =
    {
      n;
      gen = 0;
      bits = 0;
      used = 0;
      key = [||];
      stamp = [||];
      w_tid = [||];
      w_clk = [||];
      w_pc = [||];
      w_ctx = [||];
      r_clk = [||];
      r_pc = [||];
      r_ctx = [||];
      rel = [||];
      marked = Bytes.empty;
      vcs = Array.make (n * n) 0;
      d_bits = 0;
      d_used = 0;
      d_w = [||];
      d_o = [||];
      d_stamp = [||];
    }
  in
  alloc_slots sh initial_bits;
  alloc_dedup sh initial_d_bits;
  sh

(* Fibonacci hashing on the 8-byte word, keeping a word's bytes in
   adjacent slots (bits >= 3). *)
let home bits addr =
  ((((addr lsr 3) * 0x4F1BBCDCBFA53E0B) lsr (66 - bits)) lsl 3) lor (addr land 7)

(* Double the table, moving every slot of the current generation. *)
let rec grow sh =
  let n = sh.n and gen = sh.gen in
  let key = sh.key and stamp = sh.stamp and w_tid = sh.w_tid
  and w_clk = sh.w_clk and w_pc = sh.w_pc and w_ctx = sh.w_ctx
  and r_clk = sh.r_clk and r_pc = sh.r_pc and r_ctx = sh.r_ctx
  and rel = sh.rel and marked = sh.marked in
  alloc_slots sh (sh.bits + 1);
  for o = 0 to Array.length key - 1 do
    if stamp.(o) = gen then begin
      let s = slot sh key.(o) in
      sh.w_tid.(s) <- w_tid.(o);
      sh.w_clk.(s) <- w_clk.(o);
      sh.w_pc.(s) <- w_pc.(o);
      sh.w_ctx.(s) <- w_ctx.(o);
      Bytes.set sh.marked s (Bytes.get marked o);
      Array.blit r_clk (o * n) sh.r_clk (s * n) n;
      Array.blit r_pc (o * n) sh.r_pc (s * n) n;
      Array.blit r_ctx (o * n) sh.r_ctx (s * n) n;
      Array.blit rel (o * n) sh.rel (s * n) n
    end
  done

(* Slot holding [addr], claimed and cleared if absent: one probe walk,
   ending on [addr] or on the empty slot it claims. *)
and slot sh addr =
  let mask = (1 lsl sh.bits) - 1 and gen = sh.gen in
  let s = ref (home sh.bits addr) in
  while sh.stamp.(!s) = gen && sh.key.(!s) <> addr do
    s := (!s + 1) land mask
  done;
  let s = !s in
  if sh.stamp.(s) = gen then s
  else if 2 * (sh.used + 1) > mask + 1 then begin
    grow sh;
    slot sh addr
  end
  else begin
    let n = sh.n in
    sh.used <- sh.used + 1;
    sh.key.(s) <- addr;
    sh.stamp.(s) <- gen;
    sh.w_tid.(s) <- -1;
    sh.w_clk.(s) <- 0;
    Bytes.unsafe_set sh.marked s '\000';
    Array.fill sh.r_clk (s * n) n 0;
    Array.fill sh.rel (s * n) n 0;
    s
  end

let d_home bits w o =
  (((w * 0x4F1BBCDCBFA53E0B) + o) * 0x2545F4914F6CDD1D) lsr (63 - bits)

let rec d_insert sh w o =
  let mask = (1 lsl sh.d_bits) - 1 and gen = sh.gen in
  let s = ref (d_home sh.d_bits w o) in
  while sh.d_stamp.(!s) = gen && not (sh.d_w.(!s) = w && sh.d_o.(!s) = o) do
    s := (!s + 1) land mask
  done;
  if sh.d_stamp.(!s) = gen then false
  else if 2 * (sh.d_used + 1) > mask + 1 then begin
    let dw = sh.d_w and d_o = sh.d_o and ds = sh.d_stamp in
    alloc_dedup sh (sh.d_bits + 1);
    for i = 0 to Array.length dw - 1 do
      if ds.(i) = gen then ignore (d_insert sh dw.(i) d_o.(i))
    done;
    d_insert sh w o
  end
  else begin
    sh.d_used <- sh.d_used + 1;
    sh.d_w.(!s) <- w;
    sh.d_o.(!s) <- o;
    sh.d_stamp.(!s) <- gen;
    true
  end

(* One detector per trial.  [epoch] is its domain's count of [create]s:
   the handle is live while it equals [gen]. *)
type epoch = { mutable live : int }

type t = {
  sh : shadow;
  epoch : epoch;
  gen : int;
  mutable reports : report list;
}

type cache = { c_epoch : epoch; shadows : shadow option array (* by nthreads *) }

let cache_key =
  Domain.DLS.new_key (fun () ->
      { c_epoch = { live = 0 }; shadows = Array.make (Vmm.Layout.max_threads + 1) None })

let create ?(nthreads = 2) () =
  if nthreads < 1 || nthreads > Vmm.Layout.max_threads then
    invalid_arg
      (Printf.sprintf "Race.create: nthreads = %d, expected 1..%d" nthreads
         Vmm.Layout.max_threads);
  let c = Domain.DLS.get cache_key in
  let gen = c.c_epoch.live + 1 in
  c.c_epoch.live <- gen;
  let sh =
    match c.shadows.(nthreads) with
    | Some sh when 1 lsl sh.bits <= max_slots && 1 lsl sh.d_bits <= max_slots -> sh
    | _ ->
        let sh = fresh_shadow nthreads in
        c.shadows.(nthreads) <- Some sh;
        sh
  in
  sh.gen <- gen;
  sh.used <- 0;
  sh.d_used <- 0;
  for i = 0 to nthreads - 1 do
    for j = 0 to nthreads - 1 do
      sh.vcs.((i * nthreads) + j) <- (if i = j then 1 else 0)
    done
  done;
  { sh; epoch = c.c_epoch; gen; reports = [] }

let add_report t ~addr ~write_pc ~other_pc ~other_kind ~write_ctx ~other_ctx =
  if d_insert t.sh write_pc other_pc then
    t.reports <-
      { addr; write_pc; other_pc; other_kind; write_ctx; other_ctx } :: t.reports

(* [dst.(d..d+n-1)] <- pointwise max with [src.(s..s+n-1)] *)
let join dst d src s n =
  for i = 0 to n - 1 do
    let v = src.(s + i) in
    if v > dst.(d + i) then dst.(d + i) <- v
  done

let is_marked m s bit = Char.code (Bytes.unsafe_get m s) land bit <> 0

(* Feed one shared kernel access (with its attributed function). *)
let on_access t (a : Trace.access) ~ctx =
  if t.gen <> t.epoch.live then
    invalid_arg "Race.on_access: detector retired by a later create on this domain";
  if Trace.is_shared a then begin
    let sh = t.sh in
    let n = sh.n and tid = a.Trace.thread in
    if tid < 0 || tid >= n then
      invalid_arg (Printf.sprintf "Race.on_access: thread %d of a %d-thread detector" tid n);
    let vcs = sh.vcs and vb = tid * n in
    let base = a.Trace.addr and size = a.Trace.size and pc = a.Trace.pc in
    let atomic = a.Trace.atomic and is_write = a.Trace.kind = Trace.Write in
    (* acquire edge: marked read joins the cell's release clock (a new
       slot's is zero; the loop below claims these slots anyway) *)
    if atomic && not is_write then
      for i = 0 to size - 1 do
        let s = slot sh (base + i) in
        join vcs vb sh.rel (s * n) n
      done;
    let my_clk = vcs.(vb + tid) in
    for i = 0 to size - 1 do
      let addr = base + i in
      let s = slot sh addr in
      let wt = sh.w_tid.(s) in
      let w_racy =
        wt >= 0 && wt <> tid
        && sh.w_clk.(s) > vcs.(vb + wt)
        && not (atomic && is_marked sh.marked s 1)
      in
      if is_write then begin
        (* conflicts with every other thread's last write and reads *)
        if w_racy then
          add_report t ~addr ~write_pc:pc ~other_pc:sh.w_pc.(s)
            ~other_kind:Trace.Write ~write_ctx:ctx ~other_ctx:sh.w_ctx.(s);
        let rb = s * n in
        for other = 0 to n - 1 do
          if
            other <> tid
            && sh.r_clk.(rb + other) > vcs.(vb + other)
            && not (atomic && is_marked sh.marked s (2 lsl other))
          then
            add_report t ~addr ~write_pc:pc ~other_pc:sh.r_pc.(rb + other)
              ~other_kind:Trace.Read ~write_ctx:ctx ~other_ctx:sh.r_ctx.(rb + other)
        done;
        sh.w_tid.(s) <- tid;
        sh.w_clk.(s) <- my_clk;
        sh.w_pc.(s) <- pc;
        sh.w_ctx.(s) <- ctx;
        let m = Char.code (Bytes.unsafe_get sh.marked s) land lnot 1 in
        Bytes.unsafe_set sh.marked s (Char.unsafe_chr (if atomic then m lor 1 else m))
      end
      else begin
        if w_racy then
          add_report t ~addr ~write_pc:sh.w_pc.(s) ~other_pc:pc
            ~other_kind:Trace.Read ~write_ctx:sh.w_ctx.(s) ~other_ctx:ctx;
        let r = (s * n) + tid in
        sh.r_clk.(r) <- my_clk;
        sh.r_pc.(r) <- pc;
        sh.r_ctx.(r) <- ctx;
        let bit = 2 lsl tid in
        let m = Char.code (Bytes.unsafe_get sh.marked s) land lnot bit in
        Bytes.unsafe_set sh.marked s (Char.unsafe_chr (if atomic then m lor bit else m))
      end
    done;
    (* release edge: marked write deposits the thread's clock on the cell *)
    if atomic && is_write then begin
      for i = 0 to size - 1 do
        let s = slot sh (base + i) in
        join sh.rel (s * n) vcs vb n
      done;
      vcs.(vb + tid) <- vcs.(vb + tid) + 1
    end
  end

let reports t = List.rev t.reports

let num_reports t = List.length t.reports
