module Types = Trex_invindex.Types
module Index = Trex_invindex.Index
module Scorer = Trex_scoring.Scorer
module Metrics = Trex_obs.Metrics

(* Registry totals across every run; [run_stats] is the per-run delta. *)
let m_runs = Metrics.counter "era.runs"
let m_positions = Metrics.counter "era.positions_scanned"
let m_seeks = Metrics.counter "era.iterator_seeks"
let m_emitted = Metrics.counter "era.elements_emitted"

type result = { element : Types.element; tf : int array }

type run_stats = {
  positions_scanned : int;
  iterator_seeks : int;
  elements_emitted : int;
  degraded : bool;
}

let run ?guard index ~sids ~terms =
  let sids = List.sort_uniq compare sids in
  let m = List.length sids and n = List.length terms in
  Metrics.incr m_runs;
  if m = 0 || n = 0 then
    ( [],
      {
        positions_scanned = 0;
        iterator_seeks = 0;
        elements_emitted = 0;
        degraded = false;
      } )
  else begin
    let sid_iters =
      Array.of_list (List.map (fun sid -> Index.Element_iter.create index sid) sids)
    in
    let term_iters =
      Array.of_list (List.map (fun t -> Index.Posting_iter.create index t) terms)
    in
    (* e.(i): current element of extent i; c.(i): its tf row. *)
    let e = Array.map Index.Element_iter.first_element sid_iters in
    let c = Array.make_matrix m n 0 in
    let pos = Array.map Index.Posting_iter.next_position term_iters in
    let results = ref [] in
    let positions0 = Metrics.value m_positions
    and seeks0 = Metrics.value m_seeks
    and emitted0 = Metrics.value m_emitted in
    let flush i =
      if Array.exists (fun v -> v > 0) c.(i) then begin
        Metrics.incr m_emitted;
        results := { element = e.(i); tf = Array.copy c.(i) } :: !results;
        Array.fill c.(i) 0 n 0
      end
    in
    let min_term () =
      let x = ref 0 in
      for j = 1 to n - 1 do
        if Types.compare_pos pos.(j) pos.(!x) < 0 then x := j
      done;
      !x
    in
    let degraded = ref false in
    (* Main scan: handle the smallest unconsumed position, advance its
       term iterator; stop when every term is exhausted (m-pos). On
       guard expiry the scan stops where it is; every element flushed
       below carries the term frequencies accumulated so far, so the
       partial answer set is sound, just incomplete. *)
    (try
       while not (Array.for_all Types.is_m_pos pos) do
         (match guard with
         | Some g -> Trex_resilience.Guard.tick g
         | None -> ());
         let x = min_term () in
         let p = pos.(x) in
         Metrics.incr m_positions;
         for i = 0 to m - 1 do
           let ei = e.(i) in
           if Types.is_dummy ei then ()
           else begin
             let cmp_start =
               Types.compare_pos p { docid = ei.docid; offset = Types.start_pos ei }
             in
             if cmp_start <= 0 then (* before the element: do nothing *) ()
             else if Types.contains ei p then c.(i).(x) <- c.(i).(x) + 1
             else begin
               (* p lies beyond the element's interior: emit and move on. *)
               flush i;
               e.(i) <- Index.Element_iter.next_element_after sid_iters.(i) p;
               Metrics.incr m_seeks;
               if Types.contains e.(i) p then c.(i).(x) <- c.(i).(x) + 1
             end
           end
         done;
         pos.(x) <- Index.Posting_iter.next_position term_iters.(x)
       done
     with Trex_resilience.Guard.Budget_exceeded _ -> degraded := true);
    (* m-pos exceeds every end position: flush the pending rows. *)
    for i = 0 to m - 1 do
      flush i
    done;
    ( List.rev !results,
      {
        positions_scanned = Metrics.value m_positions - positions0;
        iterator_seeks = Metrics.value m_seeks - seeks0;
        elements_emitted = Metrics.value m_emitted - emitted0;
        degraded = !degraded;
      } )
  end

let term_weight index ~scoring ~corpus term element_length tf =
  let df = Index.term_df index term in
  Scorer.score scoring ~corpus ~df ~tf ~element_length

let corpus_of index =
  let s = Index.scoring_stats index in
  { Scorer.doc_count = s.Index.doc_count;
    avg_element_length = s.Index.avg_element_length }

let score_results index ~scoring ~terms results =
  let corpus = corpus_of index in
  let terms = Array.of_list terms in
  results
  |> List.map (fun { element; tf } ->
         let scores =
           List.init (Array.length terms) (fun x ->
               if tf.(x) = 0 then 0.0
               else
                 term_weight index ~scoring ~corpus terms.(x) element.Types.length
                   tf.(x))
         in
         (element, Scorer.combine scores))
  |> Answer.of_unsorted

let per_term_scores index ~scoring ~terms results =
  let corpus = corpus_of index in
  let terms_arr = Array.of_list terms in
  List.mapi
    (fun x term ->
      let entries =
        List.filter_map
          (fun { element; tf } ->
            if tf.(x) = 0 then None
            else
              Some
                ( element,
                  term_weight index ~scoring ~corpus terms_arr.(x)
                    element.Types.length tf.(x) ))
          results
      in
      (term, entries))
    terms
