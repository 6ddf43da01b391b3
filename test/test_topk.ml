(* Tests for trex_topk: ERA, RPL/ERPL store, TA/ITA, Merge, strategy.

   The central invariant, checked many ways: all strategies agree. ERA
   and Merge return identical full rankings; TA/ITA return a top-k whose
   scores match the ERA ranking (elements may differ only on exact score
   ties at the k boundary). *)

module Env = Trex_storage.Env
module Summary = Trex_summary.Summary
module Types = Trex_invindex.Types
module Index = Trex_invindex.Index
module Analyzer = Trex_text.Analyzer
module Scorer = Trex_scoring.Scorer
module Answer = Trex_topk.Answer
module Era = Trex_topk.Era
module Rpl = Trex_topk.Rpl
module Ta = Trex_topk.Ta
module Merge = Trex_topk.Merge
module Strategy = Trex_topk.Strategy

let check = Alcotest.check
let scoring = Scorer.default

(* ---- tiny hand-checkable fixture ---- *)

let tiny_docs =
  [
    ("d0.xml", "<a><b>red fox red</b><b>dog</b></a>");
    ("d1.xml", "<a><b>fox</b><c>red fox</c></a>");
  ]

let tiny () =
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let index = Index.build ~env ~summary ~analyzer:Analyzer.exact (List.to_seq tiny_docs) in
  (index, summary)

let sid_of summary path = Option.get (Summary.sid_of_path summary path)

let test_era_tiny_tf_counts () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  let results, stats = Era.run index ~sids:[ sid_b ] ~terms:[ "red"; "fox" ] in
  (* b elements containing red or fox: d0's first b (red x2, fox x1) and
     d1's b (fox x1). d0's second b has neither. *)
  check Alcotest.int "two results" 2 (List.length results);
  let tf_of docid =
    let r = List.find (fun (r : Era.result) -> r.element.Types.docid = docid) results in
    Array.to_list r.tf
  in
  check (Alcotest.list Alcotest.int) "d0 tf" [ 2; 1 ] (tf_of 0);
  check (Alcotest.list Alcotest.int) "d1 tf" [ 0; 1 ] (tf_of 1);
  Alcotest.(check bool) "positions scanned" true (stats.positions_scanned > 0)

let test_era_multiple_sids () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  let sid_c = sid_of summary [ "a"; "c" ] in
  let results, _ = Era.run index ~sids:[ sid_b; sid_c ] ~terms:[ "red" ] in
  (* red appears in d0's first b and d1's c. *)
  check Alcotest.int "two hits" 2 (List.length results);
  let sids = List.map (fun (r : Era.result) -> r.element.Types.sid) results in
  Alcotest.(check bool) "both extents" true
    (List.mem sid_b sids && List.mem sid_c sids)

let test_era_degenerate_inputs () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  check Alcotest.int "no sids" 0
    (List.length (fst (Era.run index ~sids:[] ~terms:[ "red" ])));
  check Alcotest.int "no terms" 0
    (List.length (fst (Era.run index ~sids:[ sid_b ] ~terms:[])));
  check Alcotest.int "unknown term" 0
    (List.length (fst (Era.run index ~sids:[ sid_b ] ~terms:[ "zzz" ])));
  check Alcotest.int "unknown sid" 0
    (List.length (fst (Era.run index ~sids:[ 9999 ] ~terms:[ "red" ])))

let test_era_duplicate_sids_ignored () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  let r1, _ = Era.run index ~sids:[ sid_b ] ~terms:[ "red"; "fox" ] in
  let r2, _ = Era.run index ~sids:[ sid_b; sid_b; sid_b ] ~terms:[ "red"; "fox" ] in
  check Alcotest.int "same results" (List.length r1) (List.length r2)

(* ---- generated fixture shared by the agreement tests ---- *)

let generated =
  lazy
    (let coll = Trex_corpus.Gen.ieee ~doc_count:40 ~seed:7 () in
     let env = Env.in_memory () in
     let summary = Summary.create ~alias:coll.alias Summary.Incoming in
     let index = Index.build ~env ~summary (coll.docs ()) in
     (index, summary))

let queries_for_agreement index summary =
  let translate nexi =
    let q = Trex_nexi.Parser.parse nexi in
    let t =
      Trex_nexi.Translate.translate ~summary ~normalize:(Index.normalize_term index) q
    in
    (Trex_nexi.Translate.all_sids t, Trex_nexi.Translate.all_terms t)
  in
  List.map translate
    [
      "//article//sec[about(., introduction information retrieval)]";
      "//sec[about(., code signing verification)]";
      "//bdy//*[about(., model checking state)]";
      "//article[about(., ontologies)]";
    ]

let era_answers index ~sids ~terms =
  let results, _ = Era.run index ~sids ~terms in
  Era.score_results index ~scoring ~terms results

(* TA agreement modulo ties: identical score sequence, and each TA
   element carries its exact ERA score. Under a [floor] only the
   entries above it are owed (see [Ta.run]). *)
let ta_matches_era ?(floor = neg_infinity) ~k (ta : Answer.t) (era : Answer.t) =
  let above = List.filter (fun (e : Answer.entry) -> e.score > floor) in
  let era_top = above (Answer.top_k era k) and ta = above ta in
  List.length ta = List.length era_top
  && List.for_all2
       (fun (a : Answer.entry) (b : Answer.entry) ->
         Float.abs (a.score -. b.score) < 1e-9)
       ta era_top
  && List.for_all
       (fun (a : Answer.entry) ->
         List.exists
           (fun (b : Answer.entry) ->
             Types.compare_element a.element b.element = 0
             && Float.abs (a.score -. b.score) < 1e-9)
           era)
       ta

let test_merge_equals_era () =
  let index, summary = Lazy.force generated in
  List.iter
    (fun (sids, terms) ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Erpl ] ());
      let era = era_answers index ~sids ~terms in
      let merge, _ = Merge.run index ~sids ~terms in
      Alcotest.(check bool)
        (Printf.sprintf "merge=era on %d sids/%d terms (%d answers)"
           (List.length sids) (List.length terms) (Answer.size era))
        true
        (Answer.equal ~eps:1e-9 era merge))
    (queries_for_agreement index summary)

let test_ta_matches_era_at_many_k () =
  let index, summary = Lazy.force generated in
  List.iter
    (fun (sids, terms) ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      let era = era_answers index ~sids ~terms in
      List.iter
        (fun k ->
          let ta, _ = Ta.run index ~sids ~terms ~k () in
          Alcotest.(check bool)
            (Printf.sprintf "ta=era k=%d (%d answers)" k (Answer.size era))
            true
            (ta_matches_era ~k ta era))
        [ 1; 2; 5; 10; 100; 100000 ])
    (queries_for_agreement index summary)

let test_ita_same_answers_as_ta () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      let ta, _ = Ta.run index ~sids ~terms ~k:20 () in
      let ita, stats = Ta.run index ~sids ~terms ~k:20 ~ideal_heap:true () in
      Alcotest.(check bool) "same ranking" true (Answer.equal ta ita);
      Alcotest.(check bool) "heap time measured" true (stats.heap_seconds >= 0.0)
  | [] -> Alcotest.fail "no queries"

(* TA's stopping point is fixed by its sorted accesses alone: the
   bookkeeping behind it (top-k heap, candidate table, can-beat test)
   must never move it. The expected values were recorded with TA
   visiting one extent at a time. Heap work is bounded by one sift of
   at most ceil(log2(k+1)) levels, plus a root comparison, per score
   update; an earlier lazy-deletion heap's stale entries broke that
   bound. *)
let test_ta_stop_and_heap_work_pinned () =
  let index, summary = Lazy.force generated in
  let expected =
    (* per agreement query, per k in [1; 10; 100; all]:
       (sorted_accesses, stopped_early, candidates, extents visited,
       extents skipped) *)
    [|
      [ (159, true, 104, 3, 3); (297, true, 174, 3, 3); (649, true, 319, 4, 2);
        (658, false, 323, 6, 0) ];
      [ (24, true, 16, 3, 3); (177, true, 106, 3, 3); (288, false, 175, 6, 0);
        (288, false, 175, 6, 0) ];
      [ (277, true, 221, 3, 27); (1420, true, 1039, 8, 22); (1858, true, 1288, 19, 11);
        (1941, true, 1351, 28, 2) ];
      [ (1, true, 1, 1, 0); (9, false, 9, 1, 0); (9, false, 9, 1, 0); (9, true, 9, 1, 0) ];
    |]
  in
  let rec bits k = if k = 0 then 0 else 1 + bits (k lsr 1) in
  List.iteri
    (fun qi (sids, terms) ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      let all = Answer.size (era_answers index ~sids ~terms) in
      List.iter2
        (fun k (sorted, early, cands, visited, skipped) ->
          let _, s = Ta.run index ~sids ~terms ~k () in
          let label what = Printf.sprintf "q%d k=%d %s" qi k what in
          check Alcotest.int (label "sorted accesses") sorted s.Ta.sorted_accesses;
          check Alcotest.bool (label "stopped early") early s.Ta.stopped_early;
          check Alcotest.int (label "candidates") cands s.Ta.candidates;
          check Alcotest.int (label "extents visited") visited s.Ta.extents_visited;
          check Alcotest.int (label "extents skipped") skipped s.Ta.extents_skipped;
          let bound = s.Ta.heap_pushes * (bits k + 2) in
          if s.Ta.heap_operations > bound then
            Alcotest.failf "%s: %d heap operations > %d" (label "heap work")
              s.Ta.heap_operations bound)
        [ 1; 10; 100; all ] expected.(qi))
    (queries_for_agreement index summary)

(* ITA accounting invariants (paper §3.3): the heap-excluded clock never
   reports more than the wall time around the run, the excluded heap
   time is what paused the clock, and a non-ideal run excludes nothing.
   Timing comparisons use by-construction bounds and a min-over-runs so
   the test cannot flake on a loaded machine. *)
let test_ita_clock_invariants () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      let w0 = Unix.gettimeofday () in
      let _, ita = Ta.run index ~sids ~terms ~k:20 ~ideal_heap:true () in
      let wall = Unix.gettimeofday () -. w0 in
      let eps = 1e-3 in
      Alcotest.(check bool) "heap time non-negative" true (ita.heap_seconds >= 0.0);
      Alcotest.(check bool) "elapsed+heap within wall" true
        (ita.elapsed_seconds +. ita.heap_seconds <= wall +. eps);
      let _, ta = Ta.run index ~sids ~terms ~k:20 () in
      Alcotest.(check (float 0.0)) "non-ideal excludes nothing" 0.0 ta.heap_seconds;
      (* ITA's reported time excludes heap management, so its minimum
         over a few runs cannot exceed TA's by more than scheduling
         noise on identical deterministic work. *)
      let min_over f = List.fold_left min infinity (List.init 3 (fun _ -> f ())) in
      let e_ita =
        min_over (fun () ->
            (snd (Ta.run index ~sids ~terms ~k:20 ~ideal_heap:true ())).Ta.elapsed_seconds)
      in
      let e_ta =
        min_over (fun () -> (snd (Ta.run index ~sids ~terms ~k:20 ())).Ta.elapsed_seconds)
      in
      Alcotest.(check bool) "ita <= ta + noise" true (e_ita <= e_ta +. 2e-3)
  | [] -> Alcotest.fail "no queries"

(* The public stats records are views over the registry: one run must
   advance the process-wide counters by exactly the per-run values. *)
let test_stats_are_registry_views () =
  let module Metrics = Trex_obs.Metrics in
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ());
      let delta name f =
        let c = Metrics.counter name in
        let v0 = Metrics.value c in
        let r = f () in
        (r, Metrics.value c - v0)
      in
      let ta_stats, d_sorted =
        delta "ta.sorted_accesses" (fun () -> snd (Ta.run index ~sids ~terms ~k:10 ()))
      in
      check Alcotest.int "ta sorted_accesses delta" ta_stats.Ta.sorted_accesses d_sorted;
      let ta_stats2, d_heap =
        delta "ta.heap_operations" (fun () -> snd (Ta.run index ~sids ~terms ~k:10 ()))
      in
      check Alcotest.int "ta heap_operations delta" ta_stats2.Ta.heap_operations d_heap;
      let era_stats, d_pos =
        delta "era.positions_scanned" (fun () -> snd (Era.run index ~sids ~terms))
      in
      check Alcotest.int "era positions delta" era_stats.Era.positions_scanned d_pos;
      let merge_stats, d_read =
        delta "merge.entries_read" (fun () -> snd (Merge.run index ~sids ~terms))
      in
      check Alcotest.int "merge entries delta" merge_stats.Merge.entries_read d_read
  | [] -> Alcotest.fail "no queries"

(* The k-way merge must preserve the old stats contract: entries_read is
   every stored ERPL entry of the query (Merge always drains its lists),
   elements_merged is the answer count. *)
let test_merge_stats_exact () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Erpl ] ());
      let answers, stats = Merge.run index ~sids ~terms in
      let stored =
        List.fold_left
          (fun acc term ->
            List.fold_left
              (fun acc sid -> acc + Rpl.list_entries index Rpl.Erpl ~term ~sid)
              acc sids)
          0 terms
      in
      check Alcotest.int "entries_read = stored entries" stored stats.Merge.entries_read;
      check Alcotest.int "elements_merged = answers" (List.length answers)
        stats.Merge.elements_merged
  | [] -> Alcotest.fail "no queries"

(* A guard that expires inside a multi-extent query: Merge works one
   summary extent at a time, in sid order, so the degraded answers are
   every finished extent whole plus a position-prefix of the extent it
   stopped in, each element once and with ERA's exact score. A zero
   deadline checked every [cut] ticks stops it deterministically, before
   the [cut]-th element's drain. *)
let test_merge_degraded_prefix () =
  let index, summary = Lazy.force generated in
  let sids, terms =
    let q = Trex_nexi.Parser.parse (Trex_corpus.Queries.find "260").nexi in
    let t = Trex_nexi.Translate.translate ~summary ~normalize:(Index.normalize_term index) q in
    (Trex_nexi.Translate.all_sids t, Trex_nexi.Translate.all_terms t)
  in
  ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Erpl ] ());
  let era = era_answers index ~sids ~terms in
  let cut = List.length era / 2 in
  let guard = Trex_resilience.Guard.create ~deadline_ms:0.0 ~check_every:cut () in
  let answers, stats = Merge.run ~guard index ~sids ~terms in
  Alcotest.(check bool) "tagged degraded" true stats.Merge.degraded;
  check Alcotest.int "elements before the cut" (cut - 1) (List.length answers);
  check Alcotest.int "elements_merged" (cut - 1) stats.Merge.elements_merged;
  List.iter
    (fun (a : Answer.entry) ->
      Alcotest.(check bool) "an ERA answer with its exact score" true
        (List.exists
           (fun (b : Answer.entry) ->
             Types.compare_element a.element b.element = 0 && a.score = b.score)
           era))
    answers;
  let elements = List.map (fun (a : Answer.entry) -> a.element) answers in
  check Alcotest.int "no element twice" (List.length elements)
    (List.length (List.sort_uniq Types.compare_element elements));
  (* Position order within one extent: ERA's answers of [sid], by
     (docid, endpos). *)
  let in_extent sid l =
    List.filter (fun (e : Types.element) -> e.sid = sid) l
    |> List.sort Types.compare_element
  in
  let era_elements = List.map (fun (a : Answer.entry) -> a.element) era in
  let returned_sids = List.sort_uniq compare (List.map (fun (e : Types.element) -> e.sid) elements) in
  Alcotest.(check bool) "the cut falls past the first extent" true
    (List.length returned_sids >= 2);
  let current = List.fold_left max min_int returned_sids in
  List.iter
    (fun sid ->
      let got = in_extent sid elements and all = in_extent sid era_elements in
      if sid < current then
        check Alcotest.int (Printf.sprintf "extent %d whole" sid) (List.length all)
          (List.length got)
      else
        Alcotest.(check bool) "the current extent is a position-prefix" true
          (List.for_all2 (fun a b -> Types.compare_element a b = 0) got
             (List.filteri (fun i _ -> i < List.length got) all)))
    returned_sids;
  List.iter
    (fun sid ->
      if sid < current && not (List.mem sid returned_sids) then
        check Alcotest.int (Printf.sprintf "extent %d has no answer" sid) 0
          (List.length (in_extent sid era_elements)))
    sids

let test_ta_invalid_k () =
  let index, summary = Lazy.force generated in
  ignore summary;
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Ta.run index ~sids:[ 1 ] ~terms:[ "x" ] ~k:0 ());
       false
     with Invalid_argument _ -> true)

let test_ta_missing_rpl_raises () =
  let index, _summary = tiny () in
  Alcotest.(check bool) "missing list" true
    (try
       ignore (Ta.run index ~sids:[ 1 ] ~terms:[ "red" ] ~k:5 ());
       false
     with Rpl.Cursor.Missing_list _ -> true)

let test_merge_missing_erpl_raises () =
  let index, _summary = tiny () in
  Alcotest.(check bool) "missing list" true
    (try
       ignore (Merge.run index ~sids:[ 1 ] ~terms:[ "red" ]);
       false
     with Rpl.Cursor.Missing_list _ -> true)

(* Equal scores in two extents straddling position k. b's extent has
   the higher bound (its "fox fox" element), so it is visited first,
   and its tied element is in the latest document; c's two tied
   elements come earlier. So at k = 2, pruning c's extent on the tie
   with the k-th score returns the wrong element, and at k = 3 so does
   ending c's visit after its first entry. ERA ranks ties in document
   order. *)
let test_ta_cross_extent_tie () =
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let docs =
    [
      ("d0.xml", "<a><c>fox</c></a>");
      ("d1.xml", "<a><c>fox</c></a>");
      ("d2.xml", "<a><b>fox</b></a>");
      ("d3.xml", "<a><b>fox fox</b></a>");
    ]
  in
  let index = Index.build ~env ~summary ~analyzer:Analyzer.exact (List.to_seq docs) in
  let sids = [ sid_of summary [ "a"; "b" ]; sid_of summary [ "a"; "c" ] ] in
  let terms = [ "fox" ] in
  ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
  let era = era_answers index ~sids ~terms in
  check (Alcotest.list Alcotest.int) "ERA: the top element, then the tie in document order"
    [ 3; 0; 1; 2 ]
    (List.map (fun (e : Answer.entry) -> e.element.Types.docid) era);
  (match era with
  | _ :: tied ->
      List.iter
        (fun (e : Answer.entry) ->
          check (Alcotest.float 0.0) "an exact tie" (List.hd tied).score e.score)
        tied
  | [] -> ());
  List.iter
    (fun k ->
      List.iter
        (fun ideal_heap ->
          let ta, stats = Ta.run index ~sids ~terms ~k ~ideal_heap () in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: ERA's ranking, ties in document order" k)
            true
            (Answer.equal ~eps:0.0 (Answer.top_k era k) ta);
          if k > 1 then check Alcotest.int "both extents visited" 2 stats.Ta.extents_visited)
        [ false; true ])
    [ 1; 2; 3; 4 ]

(* A floor above every extent's bound: nothing can beat it, so no list
   is read past its head and the answer is empty — single-term queries
   (whose lists stop at the floor) and multi-term ones alike. *)
let test_ta_floor_above_every_bound () =
  let index, summary = Lazy.force generated in
  List.iter
    (fun (sids, terms) ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      List.iter
        (fun terms ->
          List.iter
            (fun ideal_heap ->
              let answers, stats =
                Ta.run index ~sids ~terms ~k:10 ~floor:1e9 ~ideal_heap ()
              in
              check Alcotest.int "no answers" 0 (List.length answers);
              check Alcotest.int "no entry read" 0 stats.Ta.sorted_accesses;
              check Alcotest.int "no extent visited" 0 stats.Ta.extents_visited;
              check Alcotest.int "every extent skipped"
                (List.length (List.sort_uniq compare sids))
                stats.Ta.extents_skipped)
            [ false; true ])
        [ terms; [ List.hd terms ] ])
    (queries_for_agreement index summary)

(* ---- RPL / ERPL store ---- *)

let test_rpl_build_and_catalog () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  let sid_c = sid_of summary [ "a"; "c" ] in
  let report =
    Rpl.build index ~scoring ~sids:[ sid_b; sid_c ] ~terms:[ "red"; "fox" ]
      ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ()
  in
  check Alcotest.int "2 kinds x 2 terms x 2 sids" 8 (List.length report.pairs_built);
  Alcotest.(check bool) "entries written" true (report.entries_written > 0);
  Alcotest.(check bool) "is_materialized" true
    (Rpl.is_materialized index Rpl.Rpl ~term:"red" ~sid:sid_b);
  Alcotest.(check bool) "covers" true
    (Rpl.covers index Rpl.Rpl ~sids:[ sid_b; sid_c ] ~terms:[ "red"; "fox" ]);
  Alcotest.(check bool) "does not cover unknown term" false
    (Rpl.covers index Rpl.Rpl ~sids:[ sid_b ] ~terms:[ "zzz" ]);
  (* Idempotence. *)
  let report2 =
    Rpl.build index ~scoring ~sids:[ sid_b; sid_c ] ~terms:[ "red"; "fox" ]
      ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ()
  in
  check Alcotest.int "all reused" 8 report2.pairs_reused;
  check Alcotest.int "nothing rebuilt" 0 (List.length report2.pairs_built);
  check Alcotest.int "catalog size" 4 (List.length (Rpl.catalog index Rpl.Rpl))

let test_rpl_cursor_descending_scores () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      List.iter
        (fun term ->
          List.iter
            (fun sid ->
              let c = Rpl.Cursor.create index Rpl.Rpl ~term ~sid in
              let rec drain prev n =
                match Rpl.Cursor.next c with
                | None -> n
                | Some e ->
                    Alcotest.(check bool) "descending" true (e.Rpl.score <= prev +. 1e-12);
                    drain e.Rpl.score (n + 1)
              in
              let n = drain infinity 0 in
              check Alcotest.int "entries_read" n (Rpl.Cursor.entries_read c);
              check Alcotest.int "catalog entries" n
                (Rpl.list_entries index Rpl.Rpl ~term ~sid))
            sids)
        terms
  | [] -> Alcotest.fail "no queries"

let test_erpl_cursor_position_order () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Erpl ] ());
      List.iter
        (fun term ->
          List.iter
            (fun sid ->
              let c = Rpl.Cursor.create index Rpl.Erpl ~term ~sid in
              let rec drain prev =
                match Rpl.Cursor.next c with
                | None -> ()
                | Some e ->
                    let pos = (e.Rpl.element.Types.docid, e.Rpl.element.Types.endpos) in
                    Alcotest.(check bool) "position order" true (pos > prev);
                    Alcotest.(check int) "the list's sid" sid e.Rpl.element.Types.sid;
                    drain pos
              in
              drain (-1, -1))
            sids)
        terms
  | [] -> Alcotest.fail "no queries"

let test_rpl_drop () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_b ] ~terms:[ "red" ] ~kinds:[ Rpl.Rpl ] ());
  Alcotest.(check bool) "present" true
    (Rpl.is_materialized index Rpl.Rpl ~term:"red" ~sid:sid_b);
  let bytes_before = Rpl.total_bytes index Rpl.Rpl in
  Rpl.drop index Rpl.Rpl ~term:"red" ~sid:sid_b;
  Alcotest.(check bool) "gone" false
    (Rpl.is_materialized index Rpl.Rpl ~term:"red" ~sid:sid_b);
  Alcotest.(check bool) "bytes decreased" true
    (Rpl.total_bytes index Rpl.Rpl < bytes_before);
  (* TA on the dropped list now fails. *)
  Alcotest.(check bool) "ta fails after drop" true
    (try
       ignore (Ta.run index ~sids:[ sid_b ] ~terms:[ "red" ] ~k:1 ());
       false
     with Rpl.Cursor.Missing_list _ -> true)

let test_rpl_empty_list_materialized () =
  let index, summary = tiny () in
  let sid_c = sid_of summary [ "a"; "c" ] in
  (* "dog" never occurs under c: the list is empty but exists. *)
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_c ] ~terms:[ "dog" ] ~kinds:[ Rpl.Rpl ] ());
  Alcotest.(check bool) "materialized though empty" true
    (Rpl.is_materialized index Rpl.Rpl ~term:"dog" ~sid:sid_c);
  check Alcotest.int "no entries" 0 (Rpl.list_entries index Rpl.Rpl ~term:"dog" ~sid:sid_c);
  (* TA can now run and returns nothing. *)
  let answers, _ = Ta.run index ~sids:[ sid_c ] ~terms:[ "dog" ] ~k:5 () in
  check Alcotest.int "no answers" 0 (List.length answers)

(* ---- ERA vs a brute-force DOM oracle ---- *)

(* Reference implementation: walk every document's DOM, and for every
   element of the requested extents count the query-term occurrences in
   its descendant text. ERA must produce exactly this. *)
let naive_results docs summary analyzer ~sids ~terms =
  let terms_arr = Array.of_list terms in
  let out = ref [] in
  List.iteri
    (fun docid (_, xml) ->
      let doc = Trex_xml.Dom.parse xml in
      Trex_xml.Dom.iter_elements doc (fun path el ->
          match Summary.sid_of_path summary path with
          | Some sid when List.mem sid sids ->
              let tokens =
                Trex_text.Analyzer.terms analyzer (Trex_xml.Dom.text_content el)
              in
              let tf =
                Array.map
                  (fun term -> List.length (List.filter (( = ) term) tokens))
                  terms_arr
              in
              if Array.exists (fun c -> c > 0) tf then
                out :=
                  ( {
                      Types.sid;
                      docid;
                      endpos = el.end_pos;
                      length = Trex_xml.Dom.length el;
                    },
                    Array.to_list tf )
                  :: !out
          | Some _ | None -> ()))
    docs;
  List.sort compare !out

let test_era_matches_naive_oracle () =
  let docs =
    let coll = Trex_corpus.Gen.ieee ~doc_count:8 ~seed:31 () in
    List.of_seq (coll.docs ())
  in
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let index = Index.build ~env ~summary (List.to_seq docs) in
  let analyzer = Index.analyzer index in
  List.iter
    (fun (pattern, terms_raw) ->
      let sids =
        Summary.match_pattern summary (Trex_summary.Pattern.parse pattern)
      in
      let terms = List.filter_map (Trex_text.Analyzer.normalize analyzer) terms_raw in
      let era, _ = Era.run index ~sids ~terms in
      let era_normalized =
        List.map (fun (r : Era.result) -> (r.element, Array.to_list r.tf)) era
        |> List.sort compare
      in
      let naive = naive_results docs summary analyzer ~sids ~terms in
      Alcotest.(check bool)
        (Printf.sprintf "%s x [%s]: %d results" pattern (String.concat "," terms)
           (List.length naive))
        true
        (era_normalized = naive))
    [
      ("//sec", [ "information"; "retrieval" ]);
      ("//article//p", [ "model"; "checking"; "state" ]);
      ("//bdy//*", [ "music" ]);
      ("//article", [ "ontologies"; "case"; "study" ]);
      ("//fig//fgc", [ "evaluation" ]);
    ]

let test_per_term_scores_sum_to_combined () =
  (* The per-term scores that fill RPLs must sum to the combined score
     ERA reports for the same element. *)
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      let results, _ = Era.run index ~sids ~terms in
      let combined = Era.score_results index ~scoring ~terms results in
      let per_term = Era.per_term_scores index ~scoring ~terms results in
      let key (e : Types.element) = (e.docid, e.endpos) in
      let sums = Hashtbl.create 64 in
      List.iter
        (fun (_, entries) ->
          List.iter
            (fun (el, s) ->
              Hashtbl.replace sums (key el)
                (s +. Option.value ~default:0.0 (Hashtbl.find_opt sums (key el))))
            entries)
        per_term;
      List.iter
        (fun (entry : Answer.entry) ->
          let sum = Option.value ~default:0.0 (Hashtbl.find_opt sums (key entry.element)) in
          Alcotest.(check (float 1e-9)) "per-term sums match" entry.score sum)
        combined
  | [] -> Alcotest.fail "no queries"

(* Random NEXI over a corpus's own vocabulary: a summary node's label
   path (or its last label) as the target, and one to three of the 64
   most widespread indexed terms that the analyzer maps to themselves,
   so most queries have answers. *)
let random_queries index summary rng ~count =
  let terms = ref [] in
  Index.iter_terms index (fun token ~df ~cf:_ ->
      if
        String.length token >= 3
        && String.for_all (fun c -> c >= 'a' && c <= 'z') token
        && Index.normalize_term index token = Some token
      then terms := (df, token) :: !terms);
  let terms =
    List.sort (fun a b -> compare b a) !terms
    |> List.filteri (fun i _ -> i < 64)
    |> List.map snd |> Array.of_list
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  List.init count (fun _ ->
      let path = Summary.label_path summary (1 + Random.State.int rng (Summary.node_count summary)) in
      let target =
        if Random.State.bool rng then "//" ^ List.nth path (List.length path - 1)
        else "//" ^ String.concat "//" path
      in
      let words = List.init (1 + Random.State.int rng 3) (fun _ -> pick terms) in
      Printf.sprintf "%s[about(., %s)]" target (String.concat " " words))

(* Extents TA and ITA skipped under a floor, over every case of the
   property below: at least one case must prune. *)
let floored_extents_skipped = ref 0

(* Randomized cross-strategy agreement: a fresh corpus per seed, fixed
   and generated queries, every method through [Strategy.evaluate] with
   the method forced. Merge must equal ERA plus a sort exactly (same
   elements, bit-identical scores, same order); TA and ITA must give
   ERA's top k, and under a random positive floor every entry of it
   above the floor. *)

let prop_strategies_agree_on_random_corpora =
  QCheck.Test.make ~name:"strategies agree on random corpora" ~count:6
    QCheck.(quad small_nat (int_bound 59) small_nat (float_bound_inclusive 1.0))
    (fun (seed, k, qseed, u) ->
      (* k in 1..60, drawn from 0..59 so shrinking stays in range *)
      let k = k + 1 in
      let coll = Trex_corpus.Gen.ieee ~doc_count:12 ~seed:(seed + 100) () in
      let env = Env.in_memory () in
      let summary = Summary.create ~alias:coll.alias Summary.Incoming in
      let index = Index.build ~env ~summary (coll.docs ()) in
      let translate nexi =
        let t =
          Trex_nexi.Translate.translate ~summary
            ~normalize:(Index.normalize_term index)
            (Trex_nexi.Parser.parse nexi)
        in
        (Trex_nexi.Translate.all_sids t, Trex_nexi.Translate.all_terms t)
      in
      let queries =
        [
          "//sec[about(., information retrieval)]";
          "//article[about(., music)]";
          "//bdy//*[about(., state space)]";
        ]
        @ random_queries index summary (Random.State.make [| qseed |]) ~count:4
      in
      List.for_all
        (fun nexi ->
          let sids, terms = translate nexi in
          if sids = [] || terms = [] then true
          else begin
            ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ());
            let answers m =
              (Strategy.evaluate index ~scoring ~sids ~terms ~k m).Strategy.answers
            in
            let era = answers Strategy.Era_method in
            let exact (a : Answer.entry) (b : Answer.entry) =
              Types.compare_element a.element b.element = 0 && a.score = b.score
            in
            let merge = answers Strategy.Merge_method in
            (* A positive floor below the top score, as a scatter's
               running global k-th score would be. *)
            let floor =
              match era with
              | top :: _ -> top.Answer.score *. (0.05 +. (0.9 *. u))
              | [] -> 1.0
            in
            let skipped = Trex_obs.Metrics.counter "ta.extents_skipped" in
            let floored m =
              let before = Trex_obs.Metrics.value skipped in
              let o = Strategy.evaluate index ~scoring ~sids ~terms ~k ~floor m in
              floored_extents_skipped :=
                !floored_extents_skipped + Trex_obs.Metrics.value skipped - before;
              o.Strategy.answers
            in
            let ok =
              List.length merge = List.length era
              && List.for_all2 exact merge era
              && ta_matches_era ~k (answers Strategy.Ta_method) era
              && ta_matches_era ~k (answers Strategy.Ita_method) era
              && ta_matches_era ~floor ~k (floored Strategy.Ta_method) era
              && ta_matches_era ~floor ~k (floored Strategy.Ita_method) era
            in
            if not ok then QCheck.Test.fail_reportf "%s at k = %d, floor %h" nexi k floor;
            ok
          end)
        queries)

(* ---- prefix-materialized RPLs (paper §4's space optimization) ---- *)

let test_prefix_rpl_saves_space_and_stays_correct () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      (* Reference: full lists. *)
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ());
      let bytes_now () =
        List.fold_left
          (fun acc term ->
            List.fold_left
              (fun acc sid -> acc + Rpl.list_bytes index Rpl.Rpl ~term ~sid)
              acc sids)
          0 terms
      in
      let full_bytes = bytes_now () in
      let era = era_answers index ~sids ~terms in
      let reference, _ = Ta.run index ~sids ~terms ~k:3 () in
      let drop_all () =
        List.iter
          (fun term -> List.iter (fun sid -> Rpl.drop index Rpl.Rpl ~term ~sid) sids)
          terms
      in
      (* Whatever happens, leave the shared fixture with full lists. *)
      Fun.protect
        ~finally:(fun () ->
          drop_all ();
          ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ] ()))
        (fun () ->
          (* Rebuild truncated to a 40-entry prefix per list. *)
          drop_all ();
          ignore
            (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl ]
               ~rpl_prefix:40 ());
          Alcotest.(check bool) "prefix saves space" true (bytes_now () < full_bytes);
          (* Small k: either the prefixes certify the answer — then it
             must be exactly right — or TA honestly refuses. *)
          (match Ta.run index ~sids ~terms ~k:3 () with
          | ta, _ ->
              Alcotest.(check bool) "k=3 correct when certified" true
                (Answer.equal ta reference && ta_matches_era ~k:3 ta era)
          | exception Ta.Truncated_rpl -> ());
          (* Huge k: the prefixes can never certify the answer. *)
          Alcotest.(check bool) "huge k refused" true
            (try
               ignore (Ta.run index ~sids ~terms ~k:(Answer.size era + 1000) ());
               false
             with Ta.Truncated_rpl -> true))
  | [] -> Alcotest.fail "no queries"

(* Deterministic certification semantics on the tiny fixture: "fox" has
   two b-extent entries; a 1-entry prefix certifies k=1 (the bound
   proves nothing dropped can beat the top entry's seen score... the
   threshold equals the bound, which the stored top score matches) and
   must refuse k=2. *)
let test_prefix_rpl_certification_boundary () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_b ] ~terms:[ "fox" ] ~kinds:[ Rpl.Rpl ]
       ~rpl_prefix:1 ());
  Alcotest.(check bool) "bound positive" true
    (Rpl.list_bound index Rpl.Rpl ~term:"fox" ~sid:sid_b > 0.0);
  check Alcotest.int "one entry kept" 1
    (Rpl.list_entries index Rpl.Rpl ~term:"fox" ~sid:sid_b);
  let top1, stats = Ta.run index ~sids:[ sid_b ] ~terms:[ "fox" ] ~k:1 () in
  check Alcotest.int "k=1 answered" 1 (List.length top1);
  check Alcotest.int "read only the prefix" 1 stats.sorted_accesses;
  Alcotest.(check bool) "k=2 refused" true
    (try
       ignore (Ta.run index ~sids:[ sid_b ] ~terms:[ "fox" ] ~k:2 ());
       false
     with Ta.Truncated_rpl -> true)

(* ---- strategy ---- *)

let test_strategy_availability () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  let avail () = Strategy.available index ~sids:[ sid_b ] ~terms:[ "red" ] in
  check (Alcotest.list Alcotest.string) "only era"
    [ "ERA" ]
    (List.map Strategy.method_to_string (avail ()));
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_b ] ~terms:[ "red" ] ~kinds:[ Rpl.Rpl ] ());
  check (Alcotest.list Alcotest.string) "era+ta"
    [ "ERA"; "TA"; "ITA" ]
    (List.map Strategy.method_to_string (avail ()));
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_b ] ~terms:[ "red" ] ~kinds:[ Rpl.Erpl ] ());
  check (Alcotest.list Alcotest.string) "all"
    [ "ERA"; "TA"; "ITA"; "Merge" ]
    (List.map Strategy.method_to_string (avail ()))

let test_strategy_choose () =
  let index, summary = Lazy.force generated in
  match queries_for_agreement index summary with
  | (sids, terms) :: _ ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ());
      let total =
        List.fold_left
          (fun acc term ->
            List.fold_left
              (fun acc sid -> acc + Rpl.list_entries index Rpl.Rpl ~term ~sid)
              acc sids)
          0 terms
      in
      let small_k = Strategy.choose index ~sids ~terms ~k:1 in
      let large_k = Strategy.choose index ~sids ~terms ~k:(max 1 total) in
      Alcotest.(check bool) "tiny k prefers TA" true (small_k = Strategy.Ta_method);
      Alcotest.(check bool) "huge k prefers Merge" true (large_k = Strategy.Merge_method);
      (* k arrives from outside (CLI [-k], wire [c_k]); the rule must
         not wrap for k past max_int / 20. *)
      Alcotest.(check bool) "max_int k prefers Merge" true
        (Strategy.choose index ~sids ~terms ~k:max_int = Strategy.Merge_method)
  | [] -> Alcotest.fail "no queries"

let test_strategy_choose_without_indexes () =
  let index, _ = tiny () in
  check Alcotest.string "era fallback" "ERA"
    (Strategy.method_to_string (Strategy.choose index ~sids:[ 1 ] ~terms:[ "red" ] ~k:5))

let test_strategy_evaluate_dispatch () =
  let index, summary = tiny () in
  let sid_b = sid_of summary [ "a"; "b" ] in
  ignore
    (Rpl.build index ~scoring ~sids:[ sid_b ] ~terms:[ "red"; "fox" ]
       ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ());
  List.iter
    (fun m ->
      let o =
        Strategy.evaluate index ~scoring ~sids:[ sid_b ] ~terms:[ "red"; "fox" ] ~k:5 m
      in
      Alcotest.(check bool)
        (Strategy.method_to_string m ^ " returns answers")
        true
        (List.length o.Strategy.answers > 0);
      Alcotest.(check bool) "elapsed sane" true (o.Strategy.elapsed_seconds >= 0.0))
    Strategy.all_methods

let () =
  Alcotest.run "trex_topk"
    [
      ( "era",
        [
          Alcotest.test_case "tf counts" `Quick test_era_tiny_tf_counts;
          Alcotest.test_case "multiple sids" `Quick test_era_multiple_sids;
          Alcotest.test_case "degenerate inputs" `Quick test_era_degenerate_inputs;
          Alcotest.test_case "duplicate sids" `Quick test_era_duplicate_sids_ignored;
          Alcotest.test_case "matches brute-force oracle" `Quick
            test_era_matches_naive_oracle;
          Alcotest.test_case "per-term scores sum to combined" `Quick
            test_per_term_scores_sum_to_combined;
          (let name, speed, run =
             QCheck_alcotest.to_alcotest prop_strategies_agree_on_random_corpora
           in
           ( name,
             speed,
             fun () ->
               run ();
               Alcotest.(check bool)
                 "some floored run skipped an extent" true
                 (!floored_extents_skipped > 0) ));
        ] );
      ( "agreement",
        [
          Alcotest.test_case "merge equals era" `Quick test_merge_equals_era;
          Alcotest.test_case "merge degraded prefix" `Quick test_merge_degraded_prefix;
          Alcotest.test_case "ta matches era across k" `Quick
            test_ta_matches_era_at_many_k;
          Alcotest.test_case "ita equals ta" `Quick test_ita_same_answers_as_ta;
          Alcotest.test_case "ta stop and heap work pinned" `Quick
            test_ta_stop_and_heap_work_pinned;
          Alcotest.test_case "ta cross-extent tie" `Quick test_ta_cross_extent_tie;
          Alcotest.test_case "ta floor above every bound" `Quick
            test_ta_floor_above_every_bound;
          Alcotest.test_case "ita clock invariants" `Quick test_ita_clock_invariants;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats are registry views" `Quick
            test_stats_are_registry_views;
          Alcotest.test_case "merge stats exact" `Quick test_merge_stats_exact;
        ] );
      ( "errors",
        [
          Alcotest.test_case "ta invalid k" `Quick test_ta_invalid_k;
          Alcotest.test_case "ta missing rpl" `Quick test_ta_missing_rpl_raises;
          Alcotest.test_case "merge missing erpl" `Quick test_merge_missing_erpl_raises;
        ] );
      ( "rpl",
        [
          Alcotest.test_case "build and catalog" `Quick test_rpl_build_and_catalog;
          Alcotest.test_case "rpl cursor descending" `Quick
            test_rpl_cursor_descending_scores;
          Alcotest.test_case "erpl cursor position order" `Quick
            test_erpl_cursor_position_order;
          Alcotest.test_case "drop" `Quick test_rpl_drop;
          Alcotest.test_case "empty list materialized" `Quick
            test_rpl_empty_list_materialized;
        ] );
      ( "prefix-rpl",
        [
          Alcotest.test_case "saves space, stays correct" `Quick
            test_prefix_rpl_saves_space_and_stays_correct;
          Alcotest.test_case "certification boundary" `Quick
            test_prefix_rpl_certification_boundary;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "availability" `Quick test_strategy_availability;
          Alcotest.test_case "choose by k" `Quick test_strategy_choose;
          Alcotest.test_case "choose without indexes" `Quick
            test_strategy_choose_without_indexes;
          Alcotest.test_case "evaluate dispatch" `Quick test_strategy_evaluate_dispatch;
        ] );
    ]
