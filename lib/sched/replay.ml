(* Deterministic bug reproduction (paper section 6, "Bug Diagnosis and
   Deterministic Reproduction").

   The guest machine is deterministic; the only non-determinism in a
   trial is the scheduling policy's switch decisions.  [record] wraps a
   policy and captures every decision; [replay] re-applies a captured
   trace verbatim, so a bug-triggering interleaving can be re-executed
   exactly - under a debugger, with extra observers, or against a
   patched kernel to confirm a fix. *)

(* [t_decisions] holds one '0' or '1' per consulted decision, in the
   recorder's own bytes, so [finish] and [to_string] copy rather than
   convert. *)
type trace = { t_first : int; t_decisions : string }

type recorder = { policy : Exec.policy; finish : unit -> trace }

(* Wrap a policy, capturing its decisions.  Under a block-batching
   executor ([inner.event_only]), plain instructions skip the [decide]
   call; [on_plain] records the '0' each skipped consultation would have
   produced, so a trace recorded under batching is byte-identical to one
   recorded per-step — replaying either on either loop reproduces the
   same schedule. *)
let record (inner : Exec.policy) =
  let buf = Buffer.create 256 in
  let decide tid evs =
    let d = inner.Exec.decide tid evs in
    Buffer.add_char buf (if d then '1' else '0');
    d
  in
  let on_plain k =
    for _ = 1 to k do
      Buffer.add_char buf '0'
    done;
    inner.Exec.on_plain k
  in
  {
    policy =
      {
        Exec.first = inner.Exec.first;
        decide;
        event_only = inner.Exec.event_only;
        on_plain;
      };
    finish =
      (fun () ->
        { t_first = inner.Exec.first; t_decisions = Buffer.contents buf });
  }

(* Re-apply a captured trace.  Decisions beyond the trace length default
   to "no switch" (they can only be reached if the execution diverged,
   which the deterministic guest rules out for an unchanged kernel).
   The trace is indexed per instruction — including the '0's recorded
   for batched plain instructions — so replay declares [event_only =
   false] and consumes one decision per instruction retired. *)
let replay (t : trace) : Exec.policy =
  let idx = ref 0 in
  let decide _tid _evs =
    if !idx < String.length t.t_decisions then begin
      let d = t.t_decisions.[!idx] = '1' in
      incr idx;
      d
    end
    else false
  in
  { Exec.first = t.t_first; decide; event_only = false; on_plain = ignore }

let length t = String.length t.t_decisions

let num_switches t =
  String.fold_left (fun n d -> if d = '1' then n + 1 else n) 0 t.t_decisions

(* Serialise for storage alongside a bug report. *)
let to_string t = Printf.sprintf "%d:%s" t.t_first t.t_decisions

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt (String.sub s 0 i) with
      | Some first when String.for_all (fun c -> c = '0' || c = '1') body ->
          Some { t_first = first; t_decisions = body }
      | _ -> None)
