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

(* The merge frontier: one heap element per non-exhausted (term, sid)
   list, keyed by the head entry's document position so the pop order
   is the global position order. Ties on position (the same element
   reached from several terms) break on the list index, which is
   term-major, so an element's term scores are summed in query term
   order; equal positions are drained together below. *)
module Pos_heap = Trex_util.Heap.Make (struct
  type t = (int * int) * int (* position, stream index *)

  let compare ((p1, i1) : t) ((p2, i2) : t) =
    match compare p1 p2 with 0 -> compare i1 i2 | c -> c
end)

let run ?guard index ~sids ~terms =
  if terms = [] then invalid_arg "Merge.run: no terms";
  let clock = Stopclock.create () in
  let sids = List.sort_uniq compare sids in
  (* One reader per (term, sid) ERPL; heads.(i) is the entry behind the
     heap element carrying list i. Each term's readers are opened and
     primed together. *)
  let cursors, heads =
    List.concat_map
      (fun term ->
        List.map (fun sid -> Rpl.Cursor.create index Rpl.Erpl ~term ~sid) sids
        |> List.map (fun c -> (c, Rpl.Cursor.next c)))
      terms
    |> List.split
  in
  let cursors = Array.of_list cursors and heads = Array.of_list heads in
  let position (e : Rpl.entry) = (e.element.Types.docid, e.element.Types.endpos) in
  let heap = Pos_heap.create () in
  let advance i =
    match heads.(i) with
    | Some e -> Pos_heap.push heap (position e, i)
    | None -> ()
  in
  Array.iteri (fun i _ -> advance i) heads;
  let merged = ref [] in
  let merged_count = ref 0 in
  let running = ref true in
  let degraded = ref false in
  (* The guard is checked between elements, never mid-drain, so every
     merged element carries its exact summed score; a degraded run is a
     position-prefix of the full merge with exact scores. *)
  (try
  while !running do
    (match guard with
    | Some g -> Trex_resilience.Guard.tick g
    | None -> ());
    match Pos_heap.pop heap with
    | None -> running := false
    | Some (p, i) ->
        (* Sum the scores of every list head sitting at position p:
           keep popping while the heap minimum matches. Each list is
           advanced exactly once per element it contributes, so the
           whole run is O(entries * log lists). *)
        let e = match heads.(i) with Some e -> e | None -> assert false in
        let score = ref e.score in
        let element = ref e.element in
        heads.(i) <- Rpl.Cursor.next cursors.(i);
        advance i;
        let same_pos = ref true in
        while !same_pos do
          match Pos_heap.peek heap with
          | Some (q, j) when q = p ->
              ignore (Pos_heap.pop heap);
              let e' = match heads.(j) with Some e -> e | None -> assert false in
              score := !score +. e'.score;
              element := e'.element;
              heads.(j) <- Rpl.Cursor.next cursors.(j);
              advance j
          | Some _ | None -> same_pos := false
        done;
        incr merged_count;
        merged := (!element, !score) :: !merged
  done
   with Trex_resilience.Guard.Budget_exceeded _ -> degraded := true);
  (* The paper sorts V with QuickSort; Answer.of_unsorted is our
     equivalent (List.sort, descending score). *)
  let answers = Answer.of_unsorted !merged in
  let entries_read =
    Array.fold_left (fun acc c -> acc + Rpl.Cursor.entries_read c) 0 cursors
  in
  let blocks_decoded =
    Array.fold_left (fun acc c -> acc + Rpl.Cursor.blocks_decoded c) 0 cursors
  in
  Metrics.incr m_runs;
  Metrics.add m_entries_read entries_read;
  Metrics.add m_elements_merged !merged_count;
  ( answers,
    {
      entries_read;
      elements_merged = !merged_count;
      blocks_decoded;
      elapsed_seconds = Stopclock.elapsed clock;
      degraded = !degraded;
    } )
