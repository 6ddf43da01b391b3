(* Tests for trex_invindex: tables, index build, iterators. *)

module Env = Trex_storage.Env
module Summary = Trex_summary.Summary
module Alias = Trex_summary.Alias
module Pattern = Trex_summary.Pattern
module Types = Trex_invindex.Types
module Tables = Trex_invindex.Tables
module Index = Trex_invindex.Index
module Analyzer = Trex_text.Analyzer

let check = Alcotest.check

(* Two tiny documents with hand-checkable content. The exact analyzer
   keeps tokens verbatim, so expectations are easy to state. *)
let docs =
  [
    ("one.xml", "<a><b>red fox</b><b>red red dog</b></a>");
    ("two.xml", "<a><b>blue fox</b><c>green fox fox</c></a>");
  ]

let build_index () =
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let index =
    Index.build ~env ~summary ~analyzer:Analyzer.exact (List.to_seq docs)
  in
  (env, summary, index)

(* ---- types ---- *)

let test_pos_order () =
  let a = { Types.docid = 0; offset = 5 } and b = { Types.docid = 0; offset = 9 } in
  let c = { Types.docid = 1; offset = 0 } in
  Alcotest.(check bool) "same doc" true (Types.compare_pos a b < 0);
  Alcotest.(check bool) "doc dominates" true (Types.compare_pos b c < 0);
  Alcotest.(check bool) "m_pos maximal" true (Types.compare_pos c Types.m_pos < 0);
  Alcotest.(check bool) "is_m_pos" true (Types.is_m_pos Types.m_pos)

let test_element_contains () =
  let e = { Types.sid = 1; docid = 0; endpos = 20; length = 15 } in
  Alcotest.(check bool) "inside" true (Types.contains e { docid = 0; offset = 10 });
  Alcotest.(check bool) "at start" false (Types.contains e { docid = 0; offset = 5 });
  Alcotest.(check bool) "at end" false (Types.contains e { docid = 0; offset = 20 });
  Alcotest.(check bool) "other doc" false (Types.contains e { docid = 1; offset = 10 })

let test_element_containment () =
  let outer = { Types.sid = 1; docid = 0; endpos = 100; length = 90 } in
  let inner = { Types.sid = 2; docid = 0; endpos = 50; length = 20 } in
  Alcotest.(check bool) "contains" true
    (Types.element_contains_element ~outer ~inner);
  Alcotest.(check bool) "not reflexive-ish" false
    (Types.element_contains_element ~outer:inner ~inner:outer)

(* ---- table codecs ---- *)

let test_elements_codec_roundtrip () =
  let e = { Types.sid = 7; docid = 3; endpos = 123; length = 45 } in
  let k, v = Tables.Elements.encode e in
  check Alcotest.bool "roundtrip" true (Tables.Elements.decode k v = e)

let test_posting_chunk_roundtrip () =
  let positions =
    [
      { Types.docid = 0; offset = 5 };
      { Types.docid = 0; offset = 17 };
      { Types.docid = 2; offset = 3 };
      { Types.docid = 2; offset = 1000 };
    ]
  in
  match Tables.Posting_lists.segment_rows ~token:"fox" positions with
  | [ (k, v) ] ->
      check Alcotest.string "keyed by the first position"
        (Tables.Posting_lists.key ~token:"fox" ~first:(List.hd positions))
        k;
      check Alcotest.bool "roundtrip" true
        (Tables.Posting_lists.decode_value v = positions)
  | rows -> Alcotest.failf "%d rows for four positions" (List.length rows)

let test_posting_chunk_empty_rejected () =
  Alcotest.(check bool) "empty chunk" true
    (try
       ignore (Tables.Posting_lists.segment_rows ~token:"t" []);
       false
     with Invalid_argument _ -> true)

(* ---- index build ---- *)

let test_stats () =
  let _, _, index = build_index () in
  let s = Index.stats index in
  check Alcotest.int "docs" 2 s.doc_count;
  (* one.xml: a, b, b; two.xml: a, b, c -> 6 elements *)
  check Alcotest.int "elements" 6 s.element_count;
  (* tokens: red fox red red dog blue fox green fox fox = 10 *)
  check Alcotest.int "postings" 10 s.posting_count;
  (* distinct: red fox dog blue green = 5 *)
  check Alcotest.int "terms" 5 s.term_count

let test_term_stats () =
  let _, _, index = build_index () in
  (match Index.term_stats index "fox" with
  | Some row ->
      check Alcotest.int "fox df" 2 row.Tables.Terms.df;
      check Alcotest.int "fox cf" 4 row.Tables.Terms.cf
  | None -> Alcotest.fail "fox missing");
  (match Index.term_stats index "red" with
  | Some row ->
      check Alcotest.int "red df" 1 row.Tables.Terms.df;
      check Alcotest.int "red cf" 3 row.Tables.Terms.cf
  | None -> Alcotest.fail "red missing");
  check Alcotest.bool "unknown" true (Index.term_stats index "zzz" = None)

let test_documents () =
  let _, _, index = build_index () in
  let rows = Index.documents index in
  check Alcotest.int "two rows" 2 (List.length rows);
  (match Index.document index 0 with
  | Some row ->
      check Alcotest.string "name" "one.xml" row.Tables.Documents.name;
      check Alcotest.int "elements" 3 row.Tables.Documents.elements
  | None -> Alcotest.fail "doc 0 missing");
  check Alcotest.bool "missing doc" true (Index.document index 99 = None)

let test_source_and_element_text () =
  let _, summary, index = build_index () in
  check (Alcotest.option Alcotest.string) "source roundtrip"
    (Some (snd (List.hd docs)))
    (Index.source index 0);
  (* The first b element of doc 0 spans "<b>red fox</b>". *)
  let sid_b = Option.get (Summary.sid_of_path summary [ "a"; "b" ]) in
  (match Index.extent_elements index sid_b with
  | e :: _ ->
      check (Alcotest.option Alcotest.string) "element text" (Some "<b>red fox</b>")
        (Index.element_text index e)
  | [] -> Alcotest.fail "no b elements")

let test_extent_elements_ordered () =
  let _, summary, index = build_index () in
  let sid_b = Option.get (Summary.sid_of_path summary [ "a"; "b" ]) in
  let elems = Index.extent_elements index sid_b in
  check Alcotest.int "three b elements" 3 (List.length elems);
  let sorted = List.sort Types.compare_element elems in
  check Alcotest.bool "position order" true (elems = sorted)

(* ---- posting iterator ---- *)

let collect_positions index term =
  let it = Index.Posting_iter.create index term in
  let rec go acc =
    let p = Index.Posting_iter.next_position it in
    if Types.is_m_pos p then List.rev acc else go (p :: acc)
  in
  go []

let test_posting_iterator () =
  let _, _, index = build_index () in
  let fox = collect_positions index "fox" in
  check Alcotest.int "fox occurrences" 4 (List.length fox);
  let sorted = List.sort Types.compare_pos fox in
  check Alcotest.bool "position order" true (fox = sorted);
  (* Offsets point at the token text in the source. *)
  List.iter
    (fun (p : Types.pos) ->
      let src = Option.get (Index.source index p.docid) in
      check Alcotest.string "token at offset" "fox" (String.sub src p.offset 3))
    fox

let test_posting_chunks_span_rows () =
  (* 5,000 occurrences fill more than one segment row (each row holds
     ~1.5KB of 128-entry blocks); iteration must splice blocks and rows
     seamlessly. *)
  let n = 5000 in
  let body = String.concat " " (List.init n (fun i -> Printf.sprintf "zz x%d" i)) in
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let index =
    Index.build ~env ~summary ~analyzer:Analyzer.exact
      (List.to_seq [ ("big.xml", "<a>" ^ body ^ "</a>") ])
  in
  let rows = ref 0 in
  Trex_storage.Bptree.iter_prefix
    (Env.table env Tables.Posting_lists.name)
    ~prefix:(Tables.Posting_lists.token_prefix "zz")
    (fun _ _ -> incr rows);
  check Alcotest.bool "several rows" true (!rows > 1);
  let positions = collect_positions index "zz" in
  check Alcotest.int "all occurrences" n (List.length positions);
  let sorted = List.sort Types.compare_pos positions in
  check Alcotest.bool "ordered across chunks" true (positions = sorted)

let test_posting_iterator_unknown_term () =
  let _, _, index = build_index () in
  let it = Index.Posting_iter.create index "nonexistent" in
  check Alcotest.bool "immediately m-pos" true
    (Types.is_m_pos (Index.Posting_iter.next_position it));
  check Alcotest.bool "stays m-pos" true
    (Types.is_m_pos (Index.Posting_iter.next_position it))

(* ---- element iterator ---- *)

let test_element_iterator () =
  let _, summary, index = build_index () in
  let sid_b = Option.get (Summary.sid_of_path summary [ "a"; "b" ]) in
  let it = Index.Element_iter.create index sid_b in
  let first = Index.Element_iter.first_element it in
  Alcotest.(check bool) "has first" true (not (Types.is_dummy first));
  check Alcotest.int "first in doc 0" 0 first.Types.docid;
  (* Jump past the first element: lands on the second. *)
  let second =
    Index.Element_iter.next_element_after it
      { Types.docid = first.docid; offset = first.endpos }
  in
  Alcotest.(check bool) "second exists" true (not (Types.is_dummy second));
  Alcotest.(check bool) "strictly later" true
    (Types.compare_pos (Types.element_end first) (Types.element_end second) < 0);
  (* Past everything: dummy. *)
  let past = Index.Element_iter.next_element_after it { Types.docid = 99; offset = 0 } in
  Alcotest.(check bool) "dummy at end" true (Types.is_dummy past);
  (* m-pos in: dummy out. *)
  Alcotest.(check bool) "m-pos gives dummy" true
    (Types.is_dummy (Index.Element_iter.next_element_after it Types.m_pos))

let test_element_iterator_empty_extent () =
  let _, _, index = build_index () in
  let it = Index.Element_iter.create index 9999 in
  Alcotest.(check bool) "dummy first" true
    (Types.is_dummy (Index.Element_iter.first_element it))

(* ---- persistence ---- *)

let test_attach_roundtrip () =
  let dir = Filename.temp_file "trex_idx" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let env = Env.on_disk dir in
  let summary = Summary.create Summary.Incoming in
  let index = Index.build ~env ~summary ~analyzer:Analyzer.exact (List.to_seq docs) in
  let stats = Index.stats index in
  Env.close env;
  let env2 = Env.on_disk dir in
  let index2 = Index.attach env2 in
  check Alcotest.bool "stats survive" true (Index.stats index2 = stats);
  check Alcotest.int "summary survives"
    (Summary.node_count summary)
    (Summary.node_count (Index.summary index2));
  check Alcotest.bool "analyzer survives" true (Index.analyzer index2 = Analyzer.exact);
  let fox = collect_positions index2 "fox" in
  check Alcotest.int "postings readable" 4 (List.length fox);
  Env.close env2

let test_attach_empty_env_fails () =
  let env = Env.in_memory () in
  Alcotest.check_raises "refused as holding no index" (Index.No_index "memory") (fun () ->
      ignore (Index.attach env));
  Alcotest.(check (list string)) "no table created" [] (Env.table_names env)

let test_add_document () =
  let _, summary, index = build_index () in
  let before = Index.stats index in
  let docid, terms =
    Index.add_document index ~name:"three.xml"
      ~xml:"<a><b>red wolf</b><d>purple wolf wolf</d></a>"
  in
  check Alcotest.int "docid continues" 2 docid;
  check (Alcotest.list Alcotest.string) "doc terms" [ "purple"; "red"; "wolf" ] terms;
  let after = Index.stats index in
  check Alcotest.int "doc count" (before.doc_count + 1) after.doc_count;
  check Alcotest.int "elements" (before.element_count + 3) after.element_count;
  check Alcotest.int "postings" (before.posting_count + 5) after.posting_count;
  (* "purple" and "wolf" are new; "red" existed. *)
  check Alcotest.int "terms" (before.term_count + 2) after.term_count;
  (match Index.term_stats index "wolf" with
  | Some row ->
      check Alcotest.int "wolf df" 1 row.Tables.Terms.df;
      check Alcotest.int "wolf cf" 3 row.Tables.Terms.cf
  | None -> Alcotest.fail "wolf missing");
  (match Index.term_stats index "red" with
  | Some row -> check Alcotest.int "red df grows" 2 row.Tables.Terms.df
  | None -> Alcotest.fail "red missing");
  (* Postings of the new doc are reachable and positioned correctly. *)
  let wolf = collect_positions index "wolf" in
  check Alcotest.int "wolf occurrences" 3 (List.length wolf);
  List.iter
    (fun (p : Types.pos) -> check Alcotest.int "in new doc" docid p.docid)
    wolf;
  (* The summary grew: a/d is a new path. *)
  Alcotest.(check bool) "new extent" true
    (Summary.sid_of_path summary [ "a"; "d" ] <> None);
  (* Source retrievable. *)
  Alcotest.(check bool) "source stored" true (Index.source index docid <> None)

let test_add_document_persists () =
  let dir = Filename.temp_file "trex_add" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let env = Env.on_disk dir in
  let summary = Summary.create Summary.Incoming in
  let index = Index.build ~env ~summary ~analyzer:Analyzer.exact (List.to_seq docs) in
  ignore (Index.add_document index ~name:"n.xml" ~xml:"<a><b>zebra</b></a>");
  Env.close env;
  let env2 = Env.on_disk dir in
  let index2 = Index.attach env2 in
  check Alcotest.int "doc count persisted" 3 (Index.stats index2).doc_count;
  Alcotest.(check bool) "zebra searchable" true
    (Index.term_stats index2 "zebra" <> None);
  Env.close env2

let test_build_empty_corpus () =
  let env = Env.in_memory () in
  let summary = Summary.create Summary.Incoming in
  let index = Index.build ~env ~summary Seq.empty in
  let s = Index.stats index in
  check Alcotest.int "no docs" 0 s.doc_count;
  check Alcotest.int "no elements" 0 s.element_count

let () =
  Alcotest.run "trex_invindex"
    [
      ( "types",
        [
          Alcotest.test_case "pos order" `Quick test_pos_order;
          Alcotest.test_case "contains" `Quick test_element_contains;
          Alcotest.test_case "element containment" `Quick test_element_containment;
        ] );
      ( "tables",
        [
          Alcotest.test_case "elements codec" `Quick test_elements_codec_roundtrip;
          Alcotest.test_case "posting chunk codec" `Quick test_posting_chunk_roundtrip;
          Alcotest.test_case "empty chunk rejected" `Quick
            test_posting_chunk_empty_rejected;
        ] );
      ( "build",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "term stats" `Quick test_term_stats;
          Alcotest.test_case "documents" `Quick test_documents;
          Alcotest.test_case "source and element text" `Quick
            test_source_and_element_text;
          Alcotest.test_case "extent elements ordered" `Quick
            test_extent_elements_ordered;
          Alcotest.test_case "empty corpus" `Quick test_build_empty_corpus;
        ] );
      ( "iterators",
        [
          Alcotest.test_case "posting iterator" `Quick test_posting_iterator;
          Alcotest.test_case "chunks span rows" `Quick test_posting_chunks_span_rows;
          Alcotest.test_case "unknown term" `Quick test_posting_iterator_unknown_term;
          Alcotest.test_case "element iterator" `Quick test_element_iterator;
          Alcotest.test_case "empty extent" `Quick test_element_iterator_empty_extent;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "attach roundtrip" `Quick test_attach_roundtrip;
          Alcotest.test_case "attach empty env fails" `Quick
            test_attach_empty_env_fails;
          Alcotest.test_case "add document" `Quick test_add_document;
          Alcotest.test_case "add document persists" `Quick test_add_document_persists;
        ] );
    ]
