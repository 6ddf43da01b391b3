module Query_map = Map.Make (String)
module Doc_map = Map.Make (Int)

type t = int Doc_map.t Query_map.t

let empty = Query_map.empty

let add t ~query ~docid ~grade =
  if grade < 0 then invalid_arg "Qrels.add: negative grade";
  let docs = Option.value ~default:Doc_map.empty (Query_map.find_opt query t) in
  Query_map.add query (Doc_map.add docid grade docs) t

let of_list triples =
  List.fold_left (fun t (query, docid, grade) -> add t ~query ~docid ~grade) empty triples

let grade t ~query ~docid =
  match Query_map.find_opt query t with
  | None -> 0
  | Some docs -> Option.value ~default:0 (Doc_map.find_opt docid docs)

let is_relevant t ~query ~docid = grade t ~query ~docid > 0

let relevant_count t ~query =
  match Query_map.find_opt query t with
  | None -> 0
  | Some docs -> Doc_map.fold (fun _ g acc -> if g > 0 then acc + 1 else acc) docs 0

let grades t ~query =
  match Query_map.find_opt query t with
  | None -> []
  | Some docs ->
      Doc_map.fold (fun _ g acc -> if g > 0 then g :: acc else acc) docs []
      |> List.sort (fun a b -> compare b a)
