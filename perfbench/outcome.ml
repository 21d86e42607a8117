(* A run's result and the benchmark's result line. *)

type metric = { name : string; unit_ : string; value : float }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (* the result line's: BENCHMARK.json's set *)
  extra : metric list;  (* printed for people only *)
  notes : string list;  (* human-readable lines printed before the result *)
}

let m name unit_ value = { name; unit_; value }

(* Notes and a metric table for people, then the one-line JSON result,
   last on standard output.  A non-finite value fails the run. *)
let print o =
  List.iter print_endline o.notes;
  List.iter (fun x -> Printf.printf "%-28s %16.6f %s\n" x.name x.value x.unit_) (o.metrics @ o.extra);
  let correct = o.correct && List.for_all (fun x -> Float.is_finite x.value) o.metrics in
  let attempted = max 1 o.attempted in
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
          (if Float.is_finite x.value then x.value else 0.)
          x.unit_)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted
    (if correct then o.failed else attempted)
    (String.concat ", " metrics)
