module Types = Trex_invindex.Types

type entry = { element : Types.element; score : float }
type t = entry list

let compare_entry a b =
  match compare b.score a.score with
  | 0 -> Types.compare_element a.element b.element
  | c -> c

let of_unsorted items =
  items
  |> List.map (fun (element, score) -> { element; score })
  |> List.sort compare_entry

(* The entry ranked last is the heap minimum, so a full heap ejects it
   first. *)
module Last_first = Trex_util.Heap.Make (struct
  type t = entry

  let compare a b = compare_entry b a
end)

let select k iter =
  let h = Last_first.create () in
  iter (fun element score ->
      let e = { element; score } in
      if Last_first.length h < k then Last_first.push h e
      else ignore (Last_first.push_pop h e));
  List.rev (Last_first.to_sorted_list h)

let merge lists = List.sort compare_entry (List.concat lists)

let rec top_k t k =
  if k <= 0 then []
  else match t with [] -> [] | e :: rest -> e :: top_k rest (k - 1)

let size = List.length

let equal ?(eps = 1e-9) a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Types.compare_element x.element y.element = 0
         && Float.abs (x.score -. y.score) <= eps)
       a b

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i e ->
      Format.fprintf fmt "%2d. %a score=%.4f@," (i + 1) Types.pp_element e.element
        e.score)
    t;
  Format.fprintf fmt "@]"
