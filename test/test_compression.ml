(* Block-compressed storage against exhaustive ERA.

   Segments are the only storage format, so the reference is not a
   second layout but the evaluation that needs no redundant list:
   posting iterators must return exactly the positions the source text
   yields, RPL/ERPL cursors exactly ERA's per-term scored entries
   (scores bit for bit), and ERA/TA/Merge exactly ERA's exhaustive
   ranking. Values in the pre-segment chunk format are refused, never
   decoded. *)

module Codec = Trex_util.Codec
module Env = Trex_storage.Env
module Bptree = Trex_storage.Bptree
module Summary = Trex_summary.Summary
module Types = Trex_invindex.Types
module Index = Trex_invindex.Index
module Tables = Trex_invindex.Tables
module Analyzer = Trex_text.Analyzer
module Dom = Trex_xml.Dom
module Scorer = Trex_scoring.Scorer
module Answer = Trex_topk.Answer
module Era = Trex_topk.Era
module Rpl = Trex_topk.Rpl
module Ta = Trex_topk.Ta
module Merge = Trex_topk.Merge

let check = Alcotest.check
let scoring = Scorer.default

let build ?(doc_count = 25) ?(seed = 11) () =
  let coll = Trex_corpus.Gen.ieee ~doc_count ~seed () in
  let env = Env.in_memory () in
  let summary = Summary.create ~alias:coll.alias Summary.Incoming in
  (Index.build ~env ~summary (coll.docs ()), summary)

let fixture = lazy (build ())

let queries (index, summary) =
  let translate nexi =
    let q = Trex_nexi.Parser.parse nexi in
    let t =
      Trex_nexi.Translate.translate ~summary
        ~normalize:(Index.normalize_term index) q
    in
    (Trex_nexi.Translate.all_sids t, Trex_nexi.Translate.all_terms t)
  in
  List.map translate
    [
      "//article//sec[about(., introduction information retrieval)]";
      "//bdy//*[about(., model checking state)]";
      "//article[about(., ontologies)]";
    ]

let exhaustive index ~sids ~terms =
  Era.score_results index ~scoring ~terms (fst (Era.run index ~sids ~terms))

(* ---- posting segments ---- *)

(* The segment codec is exercised directly: cut, re-read, compare. *)
let test_posting_segment_roundtrip () =
  let positions =
    (* Several docs, bursts of same-doc offsets, one sparse doc far
       away — exercises all three bit-packed streams. *)
    let out = ref [] in
    for doc = 0 to 200 do
      let docid = if doc = 200 then 100000 else doc * 3 in
      for i = 0 to 17 do
        out := { Types.docid; offset = (i * (doc + 7)) + doc } :: !out
      done
    done;
    List.sort compare (List.rev !out)
  in
  let rows = Tables.Posting_lists.segment_rows ~token:"tok" positions in
  Alcotest.(check bool) "several rows" true (List.length rows > 1);
  let decoded =
    List.concat_map (fun (_, v) -> Tables.Posting_lists.decode_value v) rows
  in
  Alcotest.(check int) "count" (List.length positions) (List.length decoded);
  Alcotest.(check bool) "positions identical" true (positions = decoded)

(* Every term's iterator, drained, equals the positions obtained by
   re-tokenizing the stored sources' text nodes. *)
let test_posting_iterators_match_source () =
  let index, _ = Lazy.force fixture in
  let expected = Hashtbl.create 1024 in
  List.iter
    (fun (d : Tables.Documents.row) ->
      let rec walk (el : Dom.element) =
        List.iter
          (function
            | Dom.Text { content; start_pos } ->
                List.iter
                  (fun (term, offset) ->
                    let l = Option.value ~default:[] (Hashtbl.find_opt expected term) in
                    Hashtbl.replace expected term
                      ({ Types.docid = d.docid; offset } :: l))
                  (Analyzer.tokenize (Index.analyzer index) ~base_offset:start_pos
                     content)
            | Dom.Element child -> walk child)
          el.children
      in
      walk (Dom.parse (Option.get (Index.source index d.docid))).root)
    (Index.documents index);
  let terms = ref 0 in
  Index.iter_terms index (fun term ~df:_ ~cf ->
      incr terms;
      let it = Index.Posting_iter.create index term in
      let rec drain acc =
        let p = Index.Posting_iter.next_position it in
        if Types.is_m_pos p then List.rev acc else drain (p :: acc)
      in
      let got = drain [] in
      let want =
        List.sort Types.compare_pos
          (Option.value ~default:[] (Hashtbl.find_opt expected term))
      in
      if got <> want then Alcotest.failf "postings of %S differ from the source" term;
      check Alcotest.int ("cf " ^ term) cf (List.length got));
  check Alcotest.int "every source term indexed" (Hashtbl.length expected) !terms

(* ---- RPL/ERPL cursors ---- *)

let materialize index ~sids ~terms =
  ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ Rpl.Rpl; Rpl.Erpl ] ())

let drain_with next c =
  let out = ref [] in
  let rec go () =
    match next c with
    | Some e ->
        out := e :: !out;
        go ()
    | None -> List.rev !out
  in
  go ()

let drain = drain_with Rpl.Cursor.next

let entry_eq (a : Rpl.entry) (b : Rpl.entry) =
  Types.compare_element a.element b.element = 0 && a.score = b.score

let entries_eq a b = List.length a = List.length b && List.for_all2 entry_eq a b

(* ERA's scored entries for one term, in the kind's stored order. *)
let era_entries index kind ~sids ~term =
  let results, _ = Era.run index ~sids ~terms:[ term ] in
  let entries =
    Era.per_term_scores index ~scoring ~terms:[ term ] results
    |> List.concat_map snd
    |> List.map (fun (element, score) -> { Rpl.element; score })
  in
  List.sort
    (fun (a : Rpl.entry) (b : Rpl.entry) ->
      match kind with
      | Rpl.Rpl -> (
          match Float.compare b.score a.score with
          | 0 -> Types.compare_element a.element b.element
          | c -> c)
      | Rpl.Erpl -> Types.compare_element a.element b.element)
    entries

let test_cursors_equal_era () =
  let index, summary = Lazy.force fixture in
  List.iter
    (fun (sids, terms) ->
      materialize index ~sids ~terms;
      List.iter
        (fun kind ->
          List.iter
            (fun term ->
              List.iter
                (fun sid ->
                  let got = drain (Rpl.Cursor.create index kind ~term ~sid) in
                  let want = era_entries index kind ~sids:[ sid ] ~term in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s sid %d = ERA, bit for bit"
                       (Rpl.kind_to_string kind) term sid)
                    true (entries_eq got want))
                sids)
            terms)
        [ Rpl.Rpl; Rpl.Erpl ];
      (* A term's RPLs over the query's sids, merged in descending
         score order, are ERA's entries for the term. *)
      List.iter
        (fun term ->
          let got =
            List.concat_map
              (fun sid -> drain (Rpl.Cursor.create index Rpl.Rpl ~term ~sid))
              sids
            |> List.stable_sort (fun (a : Rpl.entry) (b : Rpl.entry) ->
                   match Float.compare b.score a.score with
                   | 0 -> Types.compare_element a.element b.element
                   | c -> c)
          in
          Alcotest.(check bool)
            (Printf.sprintf "RPL term %s over the sids = ERA, bit for bit" term)
            true
            (entries_eq got (era_entries index Rpl.Rpl ~sids ~term)))
        terms)
    (queries (index, summary))

let test_set_bound_yields_prefix () =
  let index, summary = Lazy.force fixture in
  let sids, terms = List.hd (queries (index, summary)) in
  materialize index ~sids ~terms;
  let term = List.hd terms in
  let sid = List.hd sids in
  let full = drain (Rpl.Cursor.create index Rpl.Rpl ~term ~sid) in
  if List.length full > 2 then begin
    (* Floor at the median score: everything above it must survive. *)
    let floor = (List.nth full (List.length full / 2)).Rpl.score in
    let c = Rpl.Cursor.create index Rpl.Rpl ~term ~sid in
    Rpl.Cursor.set_bound c floor;
    let bounded = drain c in
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: a, y :: b -> entry_eq x y && is_prefix a b
      | _ :: _, [] -> false
    in
    Alcotest.(check bool) "bounded stream is a prefix" true
      (is_prefix bounded full);
    List.iter
      (fun (e : Rpl.entry) ->
        if e.score > floor then
          Alcotest.(check bool) "above-floor entry kept" true
            (List.exists (entry_eq e) bounded))
      full;
    if List.length bounded < List.length full then begin
      Alcotest.(check bool) "skip flagged as truncation" true
        (Rpl.Cursor.truncated c);
      Alcotest.(check bool) "bound recorded" true
        (Rpl.Cursor.truncation_bound c > 0.0)
    end
  end

(* ---- catalog truncation flag ---- *)

let test_catalog_truncation_flag () =
  (* Fresh index: [Rpl.build] reuses existing complete lists, which
     would turn the prefix build below into a no-op. *)
  let index, summary = build ~doc_count:8 ~seed:5 () in
  let sids, terms = List.hd (queries (index, summary)) in
  let term = List.hd terms and sid = List.hd sids in
  ignore
    (Rpl.build index ~scoring ~sids:[ sid ] ~terms:[ term ] ~kinds:[ Rpl.Rpl ]
       ~rpl_prefix:1 ());
  Alcotest.(check bool) "prefix list flagged truncated" true
    (Rpl.list_truncated index Rpl.Rpl ~term ~sid);
  let c = Rpl.Cursor.create index Rpl.Rpl ~term ~sid in
  Alcotest.(check bool) "cursor sees the flag" true (Rpl.Cursor.truncated c);
  Rpl.drop index Rpl.Rpl ~term ~sid;
  ignore
    (Rpl.build index ~scoring ~sids:[ sid ] ~terms:[ term ] ~kinds:[ Rpl.Rpl ] ());
  Alcotest.(check bool) "complete list not truncated" false
    (Rpl.list_truncated index Rpl.Rpl ~term ~sid);
  check (Alcotest.float 0.0) "complete list bound 0.0" 0.0
    (Rpl.list_bound index Rpl.Rpl ~term ~sid)

(* ---- strategy rank identity ---- *)

(* The five IEEE Table-1 queries over a 120-document corpus, whose
   summary has 63 or more extents: per-(term, sid) lists must serve
   sids past 62 as exactly as the small fixture's. *)
let ieee120 =
  lazy
    (let coll = Trex_corpus.Gen.ieee ~doc_count:120 ~seed:42 () in
     let engine = Trex.build ~env:(Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
     let index = Trex.index engine in
     let extents = List.length (Summary.sids (Index.summary index)) in
     Alcotest.(check bool) (Printf.sprintf "%d sids >= 63" extents) true (extents >= 63);
     let translate (q : Trex_corpus.Queries.t) =
       let tr = Trex.translate engine (Trex.parse engine q.nexi) in
       (Trex.Translate.all_sids tr, Trex.Translate.all_terms tr)
     in
     ( index,
       List.map translate (Trex_corpus.Queries.for_collection Trex_corpus.Queries.Ieee) ))

let test_strategies_rank_identical_to_era () =
  let fixture = Lazy.force fixture in
  List.iter
    (fun (index, queries) ->
      List.iter
        (fun (sids, terms) ->
          materialize index ~sids ~terms;
          let era = exhaustive index ~sids ~terms in
          Alcotest.(check bool) "fixture has answers" true (era <> []);
          List.iter
            (fun k ->
              let strategy m =
                Answer.top_k
                  (Trex_topk.Strategy.evaluate index ~scoring ~sids ~terms ~k m)
                    .Trex_topk.Strategy.answers k
              in
              let want = Answer.top_k era k in
              Alcotest.(check bool) (Printf.sprintf "ERA k=%d" k) true
                (Answer.equal ~eps:0.0 want (strategy Trex_topk.Strategy.Era_method));
              Alcotest.(check bool) (Printf.sprintf "TA k=%d" k) true
                (Answer.equal want (fst (Ta.run index ~sids ~terms ~k ()))))
            [ 1; 10; 1000 ];
          Alcotest.(check bool) "Merge = exhaustive ERA" true
            (Answer.equal ~eps:0.0 era (fst (Merge.run index ~sids ~terms))))
        queries)
    [ (fst fixture, queries fixture); Lazy.force ieee120 ]

(* ---- values that are not segments are refused ---- *)

(* A value in a fixed-width chunk shape, not a segment: a non-negative
   entry count, then per-entry fields. *)
let chunk_value () =
  let b = Codec.Buf.create () in
  Codec.Buf.add_varint b 1;
  Codec.Buf.add_varint b 0;
  Codec.Buf.add_varint b 5;
  Codec.Buf.contents b

let raises_malformed f =
  match f () with
  | _ -> false
  | exception Codec.Reader.Malformed _ -> true

let test_non_segment_values_refused () =
  let index, summary = build ~doc_count:4 ~seed:5 () in
  let env = Index.env index in
  (* A posting row of an otherwise unknown token. *)
  Bptree.insert
    (Env.table env Tables.Posting_lists.name)
    ~key:(Tables.Posting_lists.key ~token:"zzlegacy" ~first:{ Types.docid = 0; offset = 5 })
    ~value:(chunk_value ());
  Alcotest.(check bool) "decode_value refuses" true
    (raises_malformed (fun () -> Tables.Posting_lists.decode_value (chunk_value ())));
  let it = Index.Posting_iter.create index "zzlegacy" in
  Alcotest.(check bool) "posting iterator refuses" true
    (raises_malformed (fun () -> Index.Posting_iter.next_position it));
  (* A list value behind a valid catalog row. *)
  let sids, terms = List.hd (queries (index, summary)) in
  let term = List.hd terms and sid = List.hd sids in
  ignore (Rpl.build index ~scoring ~sids:[ sid ] ~terms:[ term ] ~kinds:[ Rpl.Erpl ] ());
  let tbl = Env.table env (Rpl.table_name Rpl.Erpl) in
  let prefix = Codec.concat_keys [ Codec.key_of_string term; Codec.key_of_int sid ] in
  let keys = ref [] in
  Bptree.iter_prefix tbl ~prefix (fun k _ -> keys := k :: !keys);
  Alcotest.(check bool) "list has rows" true (!keys <> []);
  List.iter (fun key -> Bptree.insert tbl ~key ~value:(chunk_value ())) !keys;
  Alcotest.(check bool) "list cursor refuses" true
    (raises_malformed (fun () ->
         drain (Rpl.Cursor.create index Rpl.Erpl ~term ~sid)))

let () =
  Alcotest.run "trex_compression"
    [
      ( "postings",
        [
          Alcotest.test_case "segment roundtrip" `Quick
            test_posting_segment_roundtrip;
          Alcotest.test_case "iterators match the source text" `Quick
            test_posting_iterators_match_source;
        ] );
      ( "cursors",
        [
          Alcotest.test_case "entries bit-identical" `Quick test_cursors_equal_era;
          Alcotest.test_case "set_bound yields a prefix" `Quick
            test_set_bound_yields_prefix;
          Alcotest.test_case "catalog truncation flag" `Quick
            test_catalog_truncation_flag;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "rank identity with exhaustive ERA" `Quick
            test_strategies_rank_identical_to_era;
        ] );
      ( "legacy",
        [
          Alcotest.test_case "non-segment values refused" `Quick
            test_non_segment_values_refused;
        ] );
    ]
