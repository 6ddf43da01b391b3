type query = {
  id : string;
  nexi : string;
  k : int;
  frequency : float;
}

type t = query list

let create queries =
  if queries = [] then invalid_arg "Workload.create: empty workload";
  let ids = List.map (fun q -> q.id) queries in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Workload.create: duplicate query ids";
  List.iter
    (fun q ->
      if q.frequency <= 0.0 then
        invalid_arg (Printf.sprintf "Workload.create: frequency of %s not positive" q.id);
      if q.k <= 0 then
        invalid_arg (Printf.sprintf "Workload.create: k of %s not positive" q.id);
      match Trex_nexi.Parser.parse q.nexi with
      | _ -> ()
      | exception Trex_nexi.Parser.Syntax_error { message; pos } ->
          raise
            (Trex_nexi.Parser.Syntax_error
               { message = Printf.sprintf "query %s: %s" q.id message; pos }))
    queries;
  let total = List.fold_left (fun acc q -> acc +. q.frequency) 0.0 queries in
  if Float.abs (total -. 1.0) > 1e-6 then
    invalid_arg (Printf.sprintf "Workload.create: frequencies sum to %f, not 1" total);
  queries

let of_unweighted specs =
  let n = List.length specs in
  if n = 0 then invalid_arg "Workload.of_unweighted: empty workload";
  let f = 1.0 /. float_of_int n in
  create
    (List.map (fun (id, nexi, k) -> { id; nexi; k; frequency = f }) specs)

let queries t = t
let find t id = List.find_opt (fun q -> q.id = id) t

let translate index nexi =
  let t =
    Trex_nexi.Translate.translate
      ~summary:(Trex_invindex.Index.summary index)
      ~normalize:(Trex_invindex.Index.normalize_term index)
      (Trex_nexi.Parser.parse nexi)
  in
  (Trex_nexi.Translate.all_sids t, Trex_nexi.Translate.all_terms t)
