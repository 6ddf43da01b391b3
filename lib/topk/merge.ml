module Types = Trex_invindex.Types
module Stopclock = Trex_util.Stopclock
module Metrics = Trex_obs.Metrics

(* Registry totals across every run; [stats] is the per-run view. *)
let m_runs = Metrics.counter "merge.runs"
let m_entries_read = Metrics.counter "merge.entries_read"
let m_elements_merged = Metrics.counter "merge.elements_merged"

type stats = {
  entries_read : int;
  elements_merged : int;
  blocks_decoded : int;
  elapsed_seconds : float;
  degraded : bool;
}

(* Merge one summary extent's ERPLs, one cursor per query term in term
   order, calling [emit] once per element in position order. An element
   lies in exactly one extent, so no element is split across two calls.
   The n heads are scanned linearly for the least (docid, endpos); the
   strict comparison makes the lowest term index at that position win,
   and the heads at the same position are drained upward from it, so an
   element's term scores are summed in term order — ERA's order, bit
   for bit. The guard ticks once per element, before its drain, so an
   element is emitted whole or not at all. *)
let merge_extent ?guard cursors emit =
  let n = Array.length cursors in
  let heads = Array.map Rpl.Cursor.next cursors in
  let before (a : Types.element) (b : Types.element) =
    a.docid < b.docid || (a.docid = b.docid && a.endpos < b.endpos)
  in
  let running = ref true in
  while !running do
    let first = ref (-1) and least = ref None in
    for i = 0 to n - 1 do
      match (heads.(i), !least) with
      | Some e, Some (l : Rpl.entry) when not (before e.element l.element) -> ()
      | (Some _ as head), _ ->
          first := i;
          least := head
      | None, _ -> ()
    done;
    match !least with
    | None -> running := false
    | Some l ->
        Option.iter Trex_resilience.Guard.tick guard;
        let score = ref 0.0 in
        for i = !first to n - 1 do
          match heads.(i) with
          | Some e when not (before l.element e.element) ->
              score := !score +. e.score;
              heads.(i) <- Rpl.Cursor.next cursors.(i)
          | Some _ | None -> ()
        done;
        emit l.element !score
  done

let run ?guard index ~sids ~terms =
  if terms = [] then invalid_arg "Merge.run: no terms";
  let clock = Stopclock.create () in
  let merged = ref [] in
  let opened = ref [] in
  let degraded = ref false in
  (* One extent at a time, in sid order: a degraded run returns every
     finished extent plus a position-prefix of the current one, each
     element with its exact summed score. *)
  (try
     List.iter
       (fun sid ->
         let cursors =
           List.map (fun term -> Rpl.Cursor.create index Rpl.Erpl ~term ~sid) terms
           |> Array.of_list
         in
         opened := cursors :: !opened;
         merge_extent ?guard cursors (fun element score ->
             merged := (element, score) :: !merged))
       (List.sort_uniq Int.compare sids)
   with Trex_resilience.Guard.Budget_exceeded _ -> degraded := true);
  (* The paper sorts V with QuickSort; Answer.of_unsorted is our
     equivalent (List.sort, descending score). *)
  let answers = Answer.of_unsorted !merged in
  let elements_merged = List.length !merged in
  let total f =
    List.fold_left (Array.fold_left (fun acc c -> acc + f c)) 0 !opened
  in
  let entries_read = total Rpl.Cursor.entries_read in
  let blocks_decoded = total Rpl.Cursor.blocks_decoded in
  Metrics.incr m_runs;
  Metrics.add m_entries_read entries_read;
  Metrics.add m_elements_merged elements_merged;
  ( answers,
    {
      entries_read;
      elements_merged;
      blocks_decoded;
      elapsed_seconds = Stopclock.elapsed clock;
      degraded = !degraded;
    } )
