(* End-to-end tests through the Trex façade: build both synthetic
   collections, run the paper's seven queries with every strategy, check
   agreement, persistence, strictness and the structured evaluator. *)

module Queries = Trex_corpus.Queries
module Gen = Trex_corpus.Gen

let check = Alcotest.check

let ieee_engine =
  lazy
    (let coll = Gen.ieee ~doc_count:50 ~seed:11 () in
     (coll, Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ())))

let wiki_engine =
  lazy
    (let coll = Gen.wikipedia ~doc_count:80 ~seed:12 () in
     (coll, Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ())))

let engine_for = function
  | Queries.Ieee -> snd (Lazy.force ieee_engine)
  | Queries.Wikipedia -> snd (Lazy.force wiki_engine)

let test_paper_queries_translate_and_run () =
  List.iter
    (fun (q : Queries.t) ->
      let engine = engine_for q.collection in
      let o = Trex.query engine ~k:10 ~method_:Trex.Strategy.Era_method q.nexi in
      let sids = Trex.Translate.all_sids o.translation in
      let terms = Trex.Translate.all_terms o.translation in
      Alcotest.(check bool) (q.id ^ " has sids") true (sids <> []);
      Alcotest.(check bool) (q.id ^ " has terms") true (terms <> []);
      Alcotest.(check bool)
        (Printf.sprintf "%s returns answers (%d sids, %d terms)" q.id
           (List.length sids) (List.length terms))
        true
        (o.strategy.answers <> []))
    Queries.all

let test_all_strategies_agree_on_paper_queries () =
  List.iter
    (fun (q : Queries.t) ->
      let engine = engine_for q.collection in
      ignore (Trex.materialize engine q.nexi);
      let answers m = (Trex.query engine ~k:25 ~method_:m q.nexi).strategy.answers in
      let era = answers Trex.Strategy.Era_method in
      let merge = answers Trex.Strategy.Merge_method in
      let ta = answers Trex.Strategy.Ta_method in
      Alcotest.(check bool) (q.id ^ ": merge = era") true
        (Trex.Answer.equal ~eps:1e-9 era merge);
      (* TA returns k answers with the same score sequence. *)
      let era_top = Trex.Answer.top_k era 25 in
      check Alcotest.int (q.id ^ ": ta size") (List.length era_top) (List.length ta);
      List.iter2
        (fun (a : Trex.Answer.entry) (b : Trex.Answer.entry) ->
          check (Alcotest.float 1e-9) (q.id ^ ": ta score") b.score a.score)
        ta era_top)
    Queries.all

let test_query_default_method_uses_available_indexes () =
  let q = Queries.find "270" in
  let engine = engine_for q.collection in
  ignore (Trex.materialize engine q.nexi);
  let o_small = Trex.query engine ~k:1 q.nexi in
  let o_large = Trex.query engine ~k:100000 q.nexi in
  Alcotest.(check bool) "small k avoids ERA" true
    (o_small.strategy.method_used <> Trex.Strategy.Era_method);
  Alcotest.(check bool) "large k uses Merge" true
    (o_large.strategy.method_used = Trex.Strategy.Merge_method)

let test_strict_filters_to_target () =
  let engine = engine_for Queries.Ieee in
  (* Vague: the translation may include support sids (//article); strict
     keeps only target-extent elements. *)
  let nexi = "//article[about(., ontologies)]//sec[about(., ontologies case study)]" in
  let vague = Trex.query engine ~k:1000 ~method_:Trex.Strategy.Era_method nexi in
  let strict =
    Trex.query engine ~k:1000 ~method_:Trex.Strategy.Era_method ~strict:true nexi
  in
  let target = vague.translation.Trex.Translate.target_sids in
  Alcotest.(check bool) "strict subset of vague" true
    (List.length strict.strategy.answers <= List.length vague.strategy.answers);
  List.iter
    (fun (e : Trex.Answer.entry) ->
      Alcotest.(check bool) "strict answers in target extent" true
        (List.mem e.element.Trex.Types.sid target))
    strict.strategy.answers

(* Strict answers lie in the target extent, so a strict query reads that
   extent's lists alone: TA's top k is then the strict top k, where a top
   k ranked over every vague extent and filtered afterwards came up short
   (IEEE-200, Q233 at k = 10: 7 answers from TA against ERA's 10). *)
let test_strict_methods_agree () =
  let coll = Gen.ieee ~doc_count:200 ~seed:42 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  let queries = Queries.for_collection Queries.Ieee in
  List.iter (fun (q : Queries.t) -> ignore (Trex.materialize engine q.nexi)) queries;
  let answers (q : Queries.t) k m =
    (Trex.query engine ~k ~method_:m ~strict:true q.nexi).strategy.answers
  in
  List.iter
    (fun (q : Queries.t) ->
      List.iter
        (fun k ->
          let era = answers q k Trex.Strategy.Era_method in
          List.iter
            (fun (m, eps) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s k=%d strict %s = ERA" q.id k
                   (Trex.Strategy.method_to_string m))
                true
                (Trex.Answer.equal ~eps era (answers q k m)))
            [
              (Trex.Strategy.Merge_method, 0.0);
              (Trex.Strategy.Ta_method, 1e-9);
              (Trex.Strategy.Ita_method, 1e-9);
            ])
        [ 10; 100 ])
    queries;
  check Alcotest.int "233 k=10 strict TA answers" 10
    (List.length (answers (Queries.find "233") 10 Trex.Strategy.Ta_method))

let test_structured_evaluation () =
  let engine = engine_for Queries.Ieee in
  let nexi = "//article[about(.//bdy, synthesizers) and about(.//bdy, music)]" in
  let o = Trex.query_structured engine ~k:20 nexi in
  (* Structured answers live in the target (article) extent only. *)
  let target = o.translation.Trex.Translate.target_sids in
  Alcotest.(check bool) "has answers" true (o.strategy.answers <> []);
  List.iter
    (fun (e : Trex.Answer.entry) ->
      Alcotest.(check bool) "answer is an article" true
        (List.mem e.element.Trex.Types.sid target))
    o.strategy.answers

let test_structured_exclusion () =
  let engine = engine_for Queries.Wikipedia in
  let with_neg =
    Trex.query_structured engine ~k:100000
      "//article//figure[about(., painting -french)]"
  in
  let without_neg =
    Trex.query_structured engine ~k:100000 "//article//figure[about(., painting)]"
  in
  Alcotest.(check bool) "exclusion removes answers" true
    (List.length with_neg.strategy.answers
    <= List.length without_neg.strategy.answers)

let test_hits_are_presentable () =
  let engine = engine_for Queries.Ieee in
  let o =
    Trex.query engine ~k:5 ~method_:Trex.Strategy.Era_method
      "//sec[about(., information retrieval)]"
  in
  let hits = Trex.hits engine ~limit:5 o.strategy.answers in
  Alcotest.(check bool) "some hits" true (hits <> []);
  List.iteri
    (fun i (h : Trex.hit) ->
      check Alcotest.int "rank" (i + 1) h.rank;
      Alcotest.(check bool) "doc name" true (h.doc_name <> "");
      Alcotest.(check bool) "xpath mentions sec" true
        (String.length h.xpath > 0);
      Alcotest.(check bool) "snippet non-empty" true (String.length h.snippet > 0))
    hits

let test_persistence_roundtrip () =
  let dir = Filename.temp_file "trex_engine" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let coll = Gen.ieee ~doc_count:20 ~seed:5 () in
  let nexi = "//sec[about(., information retrieval)]" in
  let answers1 =
    let env = Trex.Env.on_disk dir in
    let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
    ignore (Trex.materialize engine nexi);
    let o = Trex.query engine ~k:10 ~method_:Trex.Strategy.Merge_method nexi in
    Trex.Env.close env;
    o.strategy.answers
  in
  let env2 = Trex.Env.on_disk dir in
  let engine2 = Trex.attach ~env:env2 () in
  (* Materialized lists survive: Merge runs without rebuilding. *)
  let o2 = Trex.query engine2 ~k:10 ~method_:Trex.Strategy.Merge_method nexi in
  Alcotest.(check bool) "answers identical after reopen" true
    (Trex.Answer.equal answers1 o2.strategy.answers);
  Trex.Env.close env2

(* The scorer is stored with the index: reopened, an engine built with
   TF-IDF still scores ERA with TF-IDF, so TA over the TF-IDF lists it
   materialized ranks exactly like exhaustive ERA. *)
let test_scorer_survives_reopen () =
  let dir = Filename.temp_file "trex_engine" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let coll = Gen.ieee ~doc_count:40 ~seed:21 () in
  let nexi = "//article//sec[about(., information retrieval)]" in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias ~scoring:Trex.Scorer.Tf_idf (coll.docs ()) in
  ignore (Trex.materialize engine nexi);
  Trex.Env.close env;
  let env = Trex.Env.on_disk dir in
  let engine = Trex.attach ~env () in
  Alcotest.(check bool) "TF-IDF read back" true (Trex.scoring engine = Trex.Scorer.Tf_idf);
  let answers m = (Trex.query engine ~k:5 ~method_:m nexi).strategy.answers in
  let ta = answers Trex.Strategy.Ta_method in
  Alcotest.(check bool) "ta answers" true (ta <> []);
  Alcotest.(check bool) "ta = exhaustive era" true
    (Trex.Answer.equal (answers Trex.Strategy.Era_method) ta);
  Trex.Env.close env

let test_table_sizes_reported () =
  let engine = engine_for Queries.Ieee in
  let sizes = Trex.table_sizes engine in
  Alcotest.(check bool) "elements" true (sizes.elements_bytes > 0);
  Alcotest.(check bool) "postings" true (sizes.postings_bytes > 0);
  Alcotest.(check bool) "postings biggest" true
    (sizes.postings_bytes > sizes.elements_bytes / 10)

let test_advise_end_to_end () =
  let coll = Gen.ieee ~doc_count:20 ~seed:9 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  let workload =
    Trex.Workload.create
      [
        {
          Trex.Workload.id = "a";
          nexi = "//sec[about(., information retrieval)]";
          k = 10;
          frequency = 0.7;
        };
        {
          Trex.Workload.id = "b";
          nexi = "//article[about(., genetic algorithm)]";
          k = 10;
          frequency = 0.3;
        };
      ]
  in
  let plan, profiles = Trex.advise engine ~workload ~budget:max_int ~runs:1 () in
  check Alcotest.int "profiles" 2 (List.length profiles);
  check Alcotest.int "decisions" 2 (List.length plan.decisions);
  Alcotest.(check bool) "plan saving non-negative" true (plan.expected_saving >= 0.0);
  (* Compare solvers on the SAME measured profiles — re-measuring would
     compare noise, not plans. *)
  let plan_opt = Trex.Advisor.branch_and_bound ~budget:max_int profiles in
  Alcotest.(check bool) "optimal at least greedy" true
    (plan_opt.expected_saving >= plan.expected_saving -. 1e-9)

(* advise only plans: the lists its measurement built are dropped again
   and the ones already stored stay, entry counts and all. *)
let ir = "//sec[about(., information retrieval)]"
let ga = "//article[about(., genetic algorithm)]"

(* An engine holding the lists of [ir], and its catalog rows. *)
let advise_fixture () =
  let coll = Gen.ieee ~doc_count:20 ~seed:9 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  ignore (Trex.materialize engine ir);
  let catalogs () =
    List.concat_map
      (fun kind ->
        List.map
          (fun (term, sid, entries, bytes) ->
            Printf.sprintf "%s %s/%d: %d entries, %d bytes"
              (Trex.Rpl.kind_to_string kind) term sid entries bytes)
          (Trex.Rpl.catalog (Trex.index engine) kind))
      [ Trex.Rpl.Rpl; Trex.Rpl.Erpl ]
  in
  (engine, catalogs)

let test_advise_leaves_lists () =
  let engine, catalogs = advise_fixture () in
  let before = catalogs () in
  let workload = Trex.Workload.of_unweighted [ ("ir", ir, 10); ("ga", ga, 10) ] in
  ignore (Trex.advise engine ~workload ~budget:max_int ~runs:1 ());
  Alcotest.(check bool) "lists were stored" true (before <> []);
  Alcotest.(check (list string)) "catalogs as advise found them" before (catalogs ())

(* A workload query that does not parse is refused before any other
   query is measured, so no list is built for them. *)
let test_advise_refuses_unparsable_workload () =
  let engine, catalogs = advise_fixture () in
  let before = catalogs () in
  (match
     Trex.advise engine
       ~workload:(Trex.Workload.of_unweighted [ ("ga", ga, 10); ("bad", "//article[", 10) ])
       ~budget:max_int ~runs:1 ()
   with
  | exception Trex_nexi.Parser.Syntax_error _ -> ()
  | _ -> Alcotest.fail "an unparsable workload query was accepted");
  Alcotest.(check (list string)) "catalogs as advise found them" before (catalogs ())

let test_structured_phrase_and_must () =
  (* Hand-built corpus where phrase adjacency and +term conjunction
     change the result set. *)
  let docs =
    [
      ("adj.xml", "<a><s><p>ranked information retrieval systems</p></s></a>");
      ("gap.xml", "<a><s><p>information about text retrieval</p></s></a>");
      ("only-info.xml", "<a><s><p>information theory background</p></s></a>");
    ]
  in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) (List.to_seq docs) in
  let answers nexi =
    (Trex.query_structured engine ~k:100 nexi).strategy.answers
    |> List.map (fun (e : Trex.Answer.entry) -> e.element.Trex.Types.docid)
    |> List.sort compare
  in
  (* Plain disjunction: all three documents' s elements hit. *)
  check
    (Alcotest.list Alcotest.int)
    "disjunction" [ 0; 1; 2 ]
    (answers "//a//s[about(., information retrieval)]");
  (* Phrase: only the document with adjacent tokens survives. *)
  check
    (Alcotest.list Alcotest.int)
    "phrase" [ 0 ]
    (answers "//a//s[about(., \"information retrieval\")]");
  (* +retrieval: conjunctive, so only-info drops out. *)
  check
    (Alcotest.list Alcotest.int)
    "must" [ 0; 1 ]
    (answers "//a//s[about(., information +retrieval)]")

let test_add_document_invalidates_indexes () =
  let coll = Gen.ieee ~doc_count:15 ~seed:21 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  let nexi = "//sec[about(., information retrieval)]" in
  ignore (Trex.materialize engine nexi);
  let before = Trex.query engine ~k:1000 ~method_:Trex.Strategy.Merge_method nexi in
  (* Add a document stuffed with the query's terms inside a sec. *)
  let xml =
    "<books><journal><article><bdy><sec><st>information retrieval information \
     retrieval</st><p>information retrieval information retrieval information \
     retrieval information retrieval</p></sec></bdy></article></journal></books>"
  in
  let docid = Trex.add_document engine ~name:"new.xml" ~xml in
  Alcotest.(check bool) "docid appended" true (docid = 15);
  (* The affected lists were dropped: Merge is unavailable until
     rebuilt. *)
  Alcotest.(check bool) "merge invalidated" true
    (try
       ignore (Trex.query engine ~k:10 ~method_:Trex.Strategy.Merge_method nexi);
       false
     with Trex.Rpl.Cursor.Missing_list _ -> true);
  (* ERA sees the new document immediately. *)
  let era = Trex.query engine ~k:100000 ~method_:Trex.Strategy.Era_method nexi in
  Alcotest.(check bool) "new answers visible" true
    (List.length era.strategy.answers > List.length before.strategy.answers);
  Alcotest.(check bool) "new doc ranks first" true
    (match era.strategy.answers with
    | top :: _ -> top.element.Trex.Types.docid = docid
    | [] -> false);
  (* Rebuild and re-check agreement. *)
  ignore (Trex.materialize engine nexi);
  let merge = Trex.query engine ~k:100000 ~method_:Trex.Strategy.Merge_method nexi in
  Alcotest.(check bool) "merge agrees after rebuild" true
    (Trex.Answer.equal era.strategy.answers merge.strategy.answers)

(* A document that shares no term with a query still moves the
   collection statistics its scores depend on, so the query's lists must
   not survive the add: rebuilt lists have to rank exactly like ERA. *)
let test_add_document_invalidates_unrelated_lists () =
  let q = Queries.find "202" in
  let coll = Gen.ieee ~doc_count:30 ~seed:21 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  ignore (Trex.materialize engine q.nexi);
  let xml =
    "<books><journal><article><bdy><sec><st>zebra migration</st><p>zebra herds \
     migrate across the savanna every year</p></sec></bdy></article></journal></books>"
  in
  ignore (Trex.add_document engine ~name:"unrelated.xml" ~xml);
  ignore (Trex.materialize engine q.nexi);
  let answers m = (Trex.query engine ~k:10 ~method_:m q.nexi).strategy.answers in
  let era = Trex.Answer.top_k (answers Trex.Strategy.Era_method) 10 in
  let ta = answers Trex.Strategy.Ta_method in
  Alcotest.(check bool) "ta answers" true (ta <> []);
  Alcotest.(check bool) "ta = exhaustive era" true (Trex.Answer.equal era ta)

let test_vacuum_reclaims_dropped_lists () =
  let coll = Gen.ieee ~doc_count:60 ~seed:23 () in
  let engine = Trex.build ~env:(Trex.Env.in_memory ()) ~alias:coll.alias (coll.docs ()) in
  ignore (Trex.materialize engine "//sec[about(., information retrieval)]");
  ignore (Trex.materialize engine "//article[about(., music)]");
  let before = Trex.table_sizes engine in
  (* The fixture must be big enough that the lists span several pages,
     or there is nothing for vacuum to reclaim. *)
  Alcotest.(check bool) "fixture spans pages" true (before.rpls_bytes > 16384);
  Trex.Rpl.drop_all (Trex.index engine) Trex.Rpl.Rpl;
  Trex.Rpl.drop_all (Trex.index engine) Trex.Rpl.Erpl;
  (* Dropping alone leaves the pages allocated... *)
  let dropped = Trex.table_sizes engine in
  Alcotest.(check bool) "drop does not shrink storage" true
    (dropped.rpls_bytes >= before.rpls_bytes);
  (* ...vacuum reclaims them. *)
  Trex.vacuum engine;
  let after = Trex.table_sizes engine in
  Alcotest.(check bool) "vacuum shrinks rpls" true
    (after.rpls_bytes < before.rpls_bytes);
  Alcotest.(check bool) "vacuum shrinks erpls" true
    (after.erpls_bytes < before.erpls_bytes);
  (* The engine still works: rebuild and query. *)
  ignore (Trex.materialize engine "//sec[about(., information retrieval)]");
  let o =
    Trex.query engine ~k:5 ~method_:Trex.Strategy.Merge_method
      "//sec[about(., information retrieval)]"
  in
  Alcotest.(check bool) "queryable after vacuum" true (o.strategy.answers <> [])

let test_syntax_error_propagates () =
  let engine = engine_for Queries.Ieee in
  Alcotest.(check bool) "syntax error" true
    (try
       ignore (Trex.query engine "not a query");
       false
     with Trex.Nexi_parser.Syntax_error _ -> true)

let () =
  Alcotest.run "trex_integration"
    [
      ( "paper-queries",
        [
          Alcotest.test_case "translate and run" `Quick
            test_paper_queries_translate_and_run;
          Alcotest.test_case "all strategies agree" `Quick
            test_all_strategies_agree_on_paper_queries;
        ] );
      ( "engine",
        [
          Alcotest.test_case "default method selection" `Quick
            test_query_default_method_uses_available_indexes;
          Alcotest.test_case "strict interpretation" `Quick
            test_strict_filters_to_target;
          Alcotest.test_case "strict methods agree" `Quick test_strict_methods_agree;
          Alcotest.test_case "structured evaluation" `Quick test_structured_evaluation;
          Alcotest.test_case "structured exclusion" `Quick test_structured_exclusion;
          Alcotest.test_case "hits presentable" `Quick test_hits_are_presentable;
          Alcotest.test_case "persistence roundtrip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "scorer survives reopen" `Quick test_scorer_survives_reopen;
          Alcotest.test_case "table sizes" `Quick test_table_sizes_reported;
          Alcotest.test_case "advise end-to-end" `Quick test_advise_end_to_end;
          Alcotest.test_case "advise leaves lists as found" `Quick
            test_advise_leaves_lists;
          Alcotest.test_case "advise refuses an unparsable workload" `Quick
            test_advise_refuses_unparsable_workload;
          Alcotest.test_case "structured phrase and must" `Quick
            test_structured_phrase_and_must;
          Alcotest.test_case "add_document invalidates indexes" `Quick
            test_add_document_invalidates_indexes;
          Alcotest.test_case "add_document invalidates unrelated lists" `Quick
            test_add_document_invalidates_unrelated_lists;
          Alcotest.test_case "vacuum reclaims dropped lists" `Quick
            test_vacuum_reclaims_dropped_lists;
          Alcotest.test_case "syntax error propagates" `Quick
            test_syntax_error_propagates;
        ] );
    ]
