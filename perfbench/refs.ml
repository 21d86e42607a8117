(* Recorded reference findings: for each workload and workload seed, the
   summary digest and found-issue set of every campaign unit. *)

module J = Obs.Export

let path = "perfbench/references.json"

type unit_ref = { digest : string; issues : int list }

type t = {
  held_out_seed : int;  (* recorded once, never used while tuning *)
  table : (string * (int * unit_ref list) list) list;  (* workload -> seed -> units *)
}

let empty = { held_out_seed = 0; table = [] }

let field k = function J.Obj l -> List.assoc_opt k l | _ -> None

let unit_of_json j =
  match (field "digest" j, field "issues" j) with
  | Some (J.String digest), Some (J.List l) ->
      { digest; issues = List.filter_map (function J.Int i -> Some i | _ -> None) l }
  | _ -> failwith "references: malformed unit"

let load () =
  if not (Sys.file_exists path) then empty
  else
    let j = J.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let held_out_seed = match field "held_out_seed" j with Some (J.Int s) -> s | _ -> 0 in
    let table =
      match field "workloads" j with
      | Some (J.Obj ws) ->
          List.map
            (fun (w, seeds) ->
              ( w,
                match seeds with
                | J.Obj l ->
                    List.map
                      (fun (s, units) ->
                        ( int_of_string s,
                          match units with
                          | J.List us -> List.map unit_of_json us
                          | _ -> failwith "references: malformed seed" ))
                      l
                | _ -> failwith "references: malformed workload" ))
            ws
      | _ -> []
    in
    { held_out_seed; table }

(* The recorded units of a workload seed's corpus set. *)
let find t ~workload ~seed =
  Option.bind (List.assoc_opt workload t.table) (List.assoc_opt (Workload.corpus_set seed))

(* Unit [u] of [find]'s result. *)
let unit_ units u = Option.bind units (fun l -> List.nth_opt l u)

let add t ~workload ~seed units =
  let seed = Workload.corpus_set seed in
  let seeds = Option.value ~default:[] (List.assoc_opt workload t.table) in
  let seeds = List.sort compare ((seed, units) :: List.remove_assoc seed seeds) in
  { t with table = (workload, seeds) :: List.remove_assoc workload t.table }

(* One line per seed, so the file stays small and diffs stay readable. *)
let save t =
  let json_unit u =
    J.Obj [ ("digest", J.String u.digest); ("issues", J.List (List.map (fun i -> J.Int i) u.issues)) ]
  in
  let workload (w, seeds) =
    Printf.sprintf "    %S: {\n%s\n    }" w
      (String.concat ",\n"
         (List.map
            (fun (s, us) ->
              Printf.sprintf "      \"%d\": %s" s (J.to_line (J.List (List.map json_unit us))))
            seeds))
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": \"snowboard-perfbench-references/1\",\n  \"held_out_seed\": %d,\n  \"workloads\": {\n%s\n  }\n}\n"
        t.held_out_seed
        (String.concat ",\n" (List.map workload (List.sort compare t.table))))
