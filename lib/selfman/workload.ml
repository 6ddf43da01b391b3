type query = {
  id : string;
  sids : int list;
  terms : string list;
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
        invalid_arg (Printf.sprintf "Workload.create: k of %s not positive" q.id))
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
    (List.map (fun (id, sids, terms, k) -> { id; sids; terms; k; frequency = f }) specs)

let of_journal records =
  if records = [] then invalid_arg "Workload.of_journal: no journal records";
  let module J = Trex_obs.Journal in
  let total = float_of_int (List.length records) in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let latest : (string, J.record) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : J.record) ->
      (match Hashtbl.find_opt counts r.J.digest with
      | Some c -> incr c
      | None ->
          Hashtbl.add counts r.J.digest (ref 1);
          order := r.J.digest :: !order);
      (* Last write wins: the shape fields (sids/terms/k) come from the
         most recent sighting of the digest. *)
      Hashtbl.replace latest r.J.digest r)
    records;
  create
    (List.rev_map
       (fun digest ->
         let r = Hashtbl.find latest digest in
         {
           id = digest;
           sids = r.J.sids;
           terms = r.J.terms;
           k = max 1 r.J.k;
           frequency = float_of_int !(Hashtbl.find counts digest) /. total;
         })
       !order)

let queries t = t
let find t id = List.find_opt (fun q -> q.id = id) t
