module Index = Trex_invindex.Index
module Rpl = Trex_topk.Rpl
module Strategy = Trex_topk.Strategy

type list_id = { term : string; sid : int }

type profile = {
  id : string;
  frequency : float;
  time_era : float;
  time_merge : float;
  time_ta : float;
  rpl_lists : (list_id * int) list;
  erpl_lists : (list_id * int) list;
  rpl_prefix : int option;
}

let saving_merge p = p.frequency *. Float.max (p.time_era -. p.time_merge) 0.0
let saving_ta p = p.frequency *. Float.max (p.time_era -. p.time_ta) 0.0

let median times =
  match List.sort compare times with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

let time_method index ~scoring ~sids ~terms ~k ~runs method_ =
  median
    (List.init runs (fun _ ->
         (Strategy.evaluate index ~scoring ~sids ~terms ~k method_).elapsed_seconds))

(* Shallowest per-list prefix depth that still lets TA certify the
   query's top-k, found by doubling from TA's observed read count.
   Returns None when only complete lists work (or nothing is saved). *)
let certified_prefix index ~scoring ~sids ~terms ~k ~reads =
  let n_lists = max 1 (List.length sids * List.length terms) in
  let full_entries =
    List.fold_left
      (fun acc term ->
        List.fold_left
          (fun acc sid -> acc + Rpl.list_entries index Rpl.Rpl ~term ~sid)
          acc sids)
      0 terms
  in
  let rebuild prefix =
    Rpl.drop_lists index
      (List.concat_map (fun term -> List.map (fun sid -> (Rpl.Rpl, term, sid)) sids) terms);
    ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ?rpl_prefix:prefix ())
  in
  let rec search depth =
    if depth * n_lists >= full_entries then begin
      (* No saving possible: keep complete lists. *)
      rebuild None;
      None
    end
    else begin
      rebuild (Some depth);
      match Trex_topk.Ta.run index ~sids ~terms ~k () with
      | _ -> Some depth
      | exception Trex_topk.Ta.Truncated_rpl -> search (depth * 2)
    end
  in
  search (max 4 (reads / n_lists))

let measure index ~scoring ?(runs = 3) ?(prefix_rpls = false) (q : Workload.query) =
  let sids, terms = Workload.translate index q.nexi in
  ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ());
  let time = time_method index ~scoring ~sids ~terms ~k:q.k ~runs in
  let time_era = time Strategy.Era_method in
  let time_merge = time Strategy.Merge_method in
  let time_ta = time Strategy.Ta_method in
  let rpl_prefix =
    if not prefix_rpls then None
    else begin
      let _, stats = Trex_topk.Ta.run index ~sids ~terms ~k:q.k () in
      certified_prefix index ~scoring ~sids ~terms ~k:q.k
        ~reads:stats.Trex_topk.Ta.sorted_accesses
    end
  in
  (* Zero-byte (empty) lists stay in the profile: coverage checks need
     their catalog entries to exist. *)
  let lists bytes_of kind =
    List.concat_map
      (fun term ->
        List.map (fun sid -> ({ term; sid }, bytes_of index kind ~term ~sid)) sids)
      terms
  in
  {
    id = q.id;
    frequency = q.frequency;
    time_era;
    time_merge;
    time_ta;
    rpl_lists = lists Rpl.list_bytes Rpl.Rpl;
    erpl_lists = lists Rpl.list_bytes Rpl.Erpl;
    rpl_prefix;
  }

let make ~id ~frequency ~time_era ~time_merge ~time_ta ~rpl_lists ~erpl_lists =
  let conv = List.map (fun (term, sid, bytes) -> ({ term; sid }, bytes)) in
  {
    id;
    frequency;
    time_era;
    time_merge;
    time_ta;
    rpl_lists = conv rpl_lists;
    erpl_lists = conv erpl_lists;
    rpl_prefix = None;
  }
