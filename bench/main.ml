(* TReX benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) against the synthetic INEX-like collections.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1 fig4 selfman   (selected sections)
     dune exec bench/main.exe -- --quick all
     dune exec bench/main.exe -- --quick --out /tmp/bench sizes table1 io

   Sections:
     sizes         - §5.1 corpus and table sizes + summary sizes (§2.1)
     table1        - Table 1: per-query #sids / #terms / #answers
     fig4          - Figure 4: Q202, Q203 time vs k for ERA/Merge/TA/ITA
     fig5          - Figure 5: Q260, Q270
     fig6          - Figure 6: Q233, Q290, Q292
     selfman       - §4: greedy vs optimal index selection under a budget
                     sweep, with the paper's prefix S_RPL accounting
     ablation      - summary-variant (tag/incoming/±alias, A(k)) and
                     scorer ablations
     io            - page-cache size vs physical I/O on an on-disk index
     compression   - block-compressed storage per Table-1 query: bytes on
                     disk, cold-cache physical reads, rank identity
                     with exhaustive ERA
     ingest        - durable add_document: manifest frames and bytes,
                     fsyncs, page writes and splits per add, checkpoints
                     included
     shard         - sharded scatter-gather: shard count vs latency,
                     degraded serving, split/merge rebalance cost
     shard_proc    - process-isolated workers: supervised scatter vs
                     the in-process coordinator, spawn/handshake cost
     telemetry     - cross-process telemetry harvest overhead: supervised
                     scatter untraced vs traced vs traced+journaled
     serve         - network front door: transport overhead vs a direct
                     query, sustained QPS with p50/p99, shed rate at 2x
                     the measured capacity, socketpair vs loopback-TCP
                     worker transport
     effectiveness - P@10/MAP/nDCG against the generator's topic ground
                     truth; BM25 vs TF-IDF

   Timing protocol mirrors the paper: five runs per point, best and
   worst dropped, the remaining three averaged (--quick: three runs,
   drop none, smaller corpora and sweeps). *)

module Gen = Trex_corpus.Gen
module Queries = Trex_corpus.Queries
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Summary = Trex_summary.Summary
module Strategy = Trex.Strategy
module Translate = Trex.Translate

let quick = ref false
let sections = ref []

(* Supervised shard workers exec their parent's binary, so the bench
   must answer the shard-worker argv before any section parsing. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: rest ->
      let rec get_opt key = function
        | k :: v :: _ when k = key -> Some v
        | _ :: tl -> get_opt key tl
        | [] -> None
      in
      let get key =
        match get_opt key rest with
        | Some v -> v
        | None ->
            prerr_endline ("shard-worker: missing " ^ key);
            exit 2
      in
      let dir = get "--dir" and shard = get "--shard" in
      (match get_opt "--listen" rest with
      | Some addr -> Supervisor.worker_listen ~dir ~shard ~addr ()
      | None -> Supervisor.worker_main ~dir ~shard ())
  | _ -> ()

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: dir :: rest ->
        Bench_out.set_dir dir;
        parse rest
    | [ "--out" ] -> failwith "--out requires a directory argument"
    | "all" :: rest -> parse rest
    | s :: rest ->
        sections := s :: !sections;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let want section = !sections = [] || List.mem section !sections

let header title = Printf.printf "\n=== %s ===\n%!" title

(* ---- timing protocol ---- *)

let time_once f =
  let t0 = Trex_util.Stopclock.now () in
  let result = f () in
  (result, Trex_util.Stopclock.now () -. t0)

(* Five runs, drop best and worst, average the rest (paper §5.1). *)
let trim_mean times =
  let runs = List.length times in
  let sorted = List.sort compare times in
  let trimmed =
    if runs < 5 then sorted else List.filteri (fun i _ -> i > 0 && i < runs - 1) sorted
  in
  List.fold_left ( +. ) 0.0 trimmed /. float_of_int (List.length trimmed)

let robust_time f =
  let runs = if !quick then 3 else 5 in
  ignore (f ()) (* warmup: populate caches, trigger pending GC work *);
  trim_mean (List.init runs (fun _ -> snd (time_once f)))

(* Same protocol but over a measurement the run itself reports (ITA's
   heap-excluded clock). *)
let robust_reported f =
  let runs = if !quick then 3 else 5 in
  ignore (f ());
  trim_mean (List.init runs (fun _ -> f ()))

(* ---- engines ---- *)

let build_engine (coll : Gen.collection) =
  let env = Trex.Env.in_memory () in
  let engine, dt =
    time_once (fun () -> Trex.build ~env ~alias:coll.alias (coll.docs ()))
  in
  Printf.printf "built %s: %d docs in %.1fs\n%!" coll.name coll.doc_count dt;
  engine

let engines =
  lazy
    (let ieee_n = if !quick then 120 else 400 in
     let wiki_n = if !quick then 200 else 700 in
     let ieee_coll = Gen.ieee ~doc_count:ieee_n () in
     let wiki_coll = Gen.wikipedia ~doc_count:wiki_n () in
     let ieee = build_engine ieee_coll in
     let wiki = build_engine wiki_coll in
     ((ieee_coll, ieee), (wiki_coll, wiki)))

let engine_for = function
  | Queries.Ieee -> snd (fst (Lazy.force engines))
  | Queries.Wikipedia -> snd (snd (Lazy.force engines))

let coll_for = function
  | Queries.Ieee -> fst (fst (Lazy.force engines))
  | Queries.Wikipedia -> fst (snd (Lazy.force engines))

(* Translation of a paper query against its engine. *)
let translated (q : Queries.t) =
  let engine = engine_for q.collection in
  let o = Trex.translate engine (Trex.parse engine q.nexi) in
  (engine, Translate.all_sids o, Translate.all_terms o)

let materialized = ref false

let materialize_all () =
  if not !materialized then begin
    materialized := true;
    Printf.printf "materializing RPLs+ERPLs for all 7 queries...\n%!";
    List.iter
      (fun (q : Queries.t) ->
        let engine = engine_for q.collection in
        ignore (Trex.materialize engine q.nexi))
      Queries.all
  end

(* ---- section: sizes (§5.1 and §2.1) ---- *)

let human_bytes n =
  if n > 1_000_000 then Printf.sprintf "%.2f MB" (float_of_int n /. 1e6)
  else Printf.sprintf "%.1f KB" (float_of_int n /. 1e3)

let summary_sizes (coll : Gen.collection) =
  (* Build the four summary variants of §2.1 in one pass over the
     corpus. *)
  let variants =
    [
      ("incoming", Summary.create Summary.Incoming);
      ("tag", Summary.create Summary.Tag);
      ("alias incoming", Summary.create ~alias:coll.alias Summary.Incoming);
      ("alias tag", Summary.create ~alias:coll.alias Summary.Tag);
    ]
  in
  Seq.iter
    (fun (_, xml) ->
      let doc = Trex_xml.Dom.parse xml in
      List.iter (fun (_, s) -> ignore (Summary.observe_document s doc)) variants)
    (coll.docs ());
  variants

let section_sizes () =
  header "SIZES (paper 5.1 corpus/table sizes, 2.1 summary sizes)";
  Printf.printf
    "paper: IEEE 16,819 docs 0.76GB; Elements 1.52GB, PostingLists 8.05GB\n";
  Printf.printf
    "paper: Wikipedia 659,388 docs 4.6GB; Elements 3.91GB, PostingLists 48.1GB\n";
  Printf.printf
    "paper: IEEE summaries: incoming 11563, tag 185, alias incoming 7860, alias tag 145\n\n";
  List.iter
    (fun cid ->
      let coll = coll_for cid in
      let engine = engine_for cid in
      let stats = Trex.Index.stats (Trex.index engine) in
      let sizes = Trex.table_sizes engine in
      Printf.printf "%s: %d docs, %s XML, %d elements, %d terms, %d postings\n"
        coll.name stats.doc_count (human_bytes stats.total_bytes)
        stats.element_count stats.term_count stats.posting_count;
      Printf.printf "  Elements table:     %s\n" (human_bytes sizes.elements_bytes);
      Printf.printf "  PostingLists table: %s\n" (human_bytes sizes.postings_bytes);
      Printf.printf
        "  (postings/elements ratio %.1fx; paper has 5.3x IEEE, 12.3x Wiki)\n"
        (float_of_int sizes.postings_bytes /. float_of_int (max 1 sizes.elements_bytes));
      Bench_out.record ~section:"sizes" ~query:coll.name ~strategy:"index_build"
        ~k:0 ~ms:0.0
        [
          ("docs", stats.doc_count);
          ("elements", stats.element_count);
          ("terms", stats.term_count);
          ("postings", stats.posting_count);
          ("elements_bytes", sizes.elements_bytes);
          ("postings_bytes", sizes.postings_bytes);
        ];
      List.iter
        (fun (name, s) ->
          Printf.printf "  %-16s summary: %5d nodes%s\n" name (Summary.node_count s)
            (if Summary.nesting_free s then "" else "  [not nesting-free]"))
        (summary_sizes coll))
    [ Queries.Ieee; Queries.Wikipedia ];
  Bench_out.flush ~quick:!quick "sizes"

(* ---- section: table 1 ---- *)

let paper_table1 =
  (* id -> (#sids, #terms, #answers) from the paper's Table 1. *)
  [
    ("202", (11, 3, 9169)); ("203", (10, 3, 480)); ("233", (2, 2, 458));
    ("260", (1863, 5, 108538)); ("270", (10, 3, 92464)); ("290", (1, 2, 4860));
    ("292", (35, 5, 448));
  ]

let answers_cache : (string, int) Hashtbl.t = Hashtbl.create 8

let count_answers (q : Queries.t) =
  match Hashtbl.find_opt answers_cache q.id with
  | Some n -> n
  | None ->
      let engine, sids, terms = translated q in
      let o =
        Strategy.evaluate (Trex.index engine) ~scoring:(Trex.scoring engine) ~sids
          ~terms ~k:max_int Strategy.Era_method
      in
      let n = List.length o.Strategy.answers in
      Hashtbl.add answers_cache q.id n;
      n

let section_table1 () =
  header "TABLE 1: queries, translation sizes, answer counts";
  Printf.printf "%-4s %-10s %7s %7s %9s | %9s %7s %9s\n" "id" "collection" "#sids"
    "#terms" "#answers" "p#sids" "p#terms" "p#answers";
  List.iter
    (fun (q : Queries.t) ->
      let _, sids, terms = translated q in
      let n_answers = count_answers q in
      let p_sids, p_terms, p_answers =
        match List.assoc_opt q.id paper_table1 with
        | Some v -> v
        | None -> (0, 0, 0)
      in
      Bench_out.record ~section:"table1" ~query:q.id ~strategy:"translate" ~k:0
        ~ms:0.0
        [
          ("sids", List.length sids);
          ("terms", List.length terms);
          ("answers", n_answers);
        ];
      Printf.printf "%-4s %-10s %7d %7d %9d | %9d %7d %9d\n" q.id
        (match q.collection with Queries.Ieee -> "IEEE" | Queries.Wikipedia -> "Wiki")
        (List.length sids) (List.length terms) n_answers p_sids p_terms p_answers)
    Queries.all;
  Printf.printf
    "(p* columns: paper values at full INEX scale; shapes to match, not magnitudes)\n";
  Bench_out.flush ~quick:!quick "table1"

(* ---- sections: figures 4-6 ---- *)

let k_sweep n_answers =
  let base = [ 1; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000 ] in
  let upper = max 10 n_answers in
  List.filter (fun k -> k <= upper) base @ [ upper ]
  |> List.sort_uniq compare

let run_method engine ~sids ~terms ~k m () =
  ignore
    (Strategy.evaluate (Trex.index engine) ~scoring:(Trex.scoring engine) ~sids ~terms
       ~k m)

let figure_for_query ~section (q : Queries.t) =
  let engine, sids, terms = translated q in
  ignore (Trex.materialize engine q.nexi);
  let n_answers = count_answers q in
  Printf.printf "\nQuery %s (%s): %d sids, %d terms, %d answers\n  NEXI: %s\n" q.id
    (match q.collection with Queries.Ieee -> "IEEE" | Queries.Wikipedia -> "Wiki")
    (List.length sids) (List.length terms) n_answers q.nexi;
  let t_era =
    robust_time (run_method engine ~sids ~terms ~k:max_int Strategy.Era_method)
  in
  let t_merge =
    robust_time (run_method engine ~sids ~terms ~k:max_int Strategy.Merge_method)
  in
  (* "All answers" rows: ERA and Merge ignore k, report k = #answers. *)
  Bench_out.record ~section ~query:q.id ~strategy:"ERA" ~k:n_answers
    ~ms:(t_era *. 1000.0) [];
  let index = Trex.index engine in
  (* One direct Merge run for the machine-independent work counts. *)
  let _, ms = Trex.Merge.run index ~sids ~terms in
  Bench_out.record ~section ~query:q.id ~strategy:"Merge" ~k:n_answers
    ~ms:(t_merge *. 1000.0)
    [ ("entries_read", ms.entries_read); ("blocks_decoded", ms.blocks_decoded) ];
  Printf.printf "  ERA   (all answers): %8.2f ms\n" (t_era *. 1000.0);
  Printf.printf "  Merge (all answers): %8.2f ms\n" (t_merge *. 1000.0);
  Printf.printf "  %8s %12s %12s %10s %10s %8s %8s\n" "k" "TA (ms)" "ITA (ms)"
    "TA reads" "heap ops" "heap%" "early";
  List.iter
    (fun k ->
      let t_ta = robust_time (run_method engine ~sids ~terms ~k Strategy.Ta_method) in
      (* ITA's time is the run's own heap-excluded clock, not wall
         time around the call. *)
      let t_ita =
        robust_reported (fun () ->
            let _, stats = Trex.Ta.run index ~sids ~terms ~k ~ideal_heap:true () in
            stats.elapsed_seconds)
      in
      (* One instrumented ITA run for the machine-independent stats and
         the measured heap-management share that ITA excludes. *)
      let _, stats = Trex.Ta.run index ~sids ~terms ~k ~ideal_heap:true () in
      let total = stats.elapsed_seconds +. stats.heap_seconds in
      let heap_pct = if total > 0.0 then 100.0 *. stats.heap_seconds /. total else 0.0 in
      (* TA and ITA do identical algorithmic work (ideal_heap only
         changes the clock), so one stats record serves both rows. *)
      let counters =
        [
          ("sorted_accesses", stats.sorted_accesses);
          ("heap_operations", stats.heap_operations);
          ("heap_pushes", stats.heap_pushes);
          ("heap_evictions", stats.heap_evictions);
          ("candidates", stats.candidates);
          ("extents_visited", stats.extents_visited);
          ("extents_skipped", stats.extents_skipped);
          ("stopped_early", if stats.stopped_early then 1 else 0);
        ]
      in
      Bench_out.record ~section ~query:q.id ~strategy:"TA" ~k ~ms:(t_ta *. 1000.0)
        counters;
      Bench_out.record ~section ~query:q.id ~strategy:"ITA" ~k ~ms:(t_ita *. 1000.0)
        counters;
      Printf.printf "  %8d %12.2f %12.2f %10d %10d %7.1f%% %8s\n" k (t_ta *. 1000.0)
        (t_ita *. 1000.0) stats.sorted_accesses stats.heap_operations heap_pct
        (if stats.stopped_early then "yes" else "no"))
    (k_sweep n_answers);
  (t_era, t_merge)

let expect label cond =
  Printf.printf "  shape[%s]: %s\n" label (if cond then "OK" else "DIFFERS")

let section_figure ~section name ids note =
  header (Printf.sprintf "%s: evaluation time vs k (%s)" name note);
  List.iter
    (fun id ->
      let q = Queries.find id in
      let t_era, t_merge = figure_for_query ~section q in
      expect (id ^ ": Merge beats ERA") (t_merge < t_era))
    ids;
  Bench_out.flush ~quick:!quick section

(* ---- section: selfman ---- *)

let section_selfman () =
  header "SELF-MANAGEMENT (paper 4): greedy vs optimal under a budget sweep";
  materialize_all ();
  let ieee_queries = Queries.for_collection Queries.Ieee in
  let n = List.length ieee_queries in
  let workload =
    Trex.Workload.create
      (List.mapi
         (fun i (q : Queries.t) ->
           (* Skew the frequencies so the choice is interesting. *)
           let frequency = float_of_int (n - i) *. 2.0 /. float_of_int (n * (n + 1)) in
           { Trex.Workload.id = q.id; nexi = q.nexi; k = 10; frequency })
         ieee_queries)
  in
  let engine = engine_for Queries.Ieee in
  let runs = if !quick then 1 else 3 in
  Printf.printf "measuring %d workload queries (%d runs each)...\n%!"
    (List.length (Trex.Workload.queries workload))
    runs;
  (* S_RPL follows the paper: only the prefix TA reads until its
     stopping condition is charged (prefix_rpls). *)
  let profiles =
    List.map
      (fun q ->
        Trex.Cost.measure (Trex.index engine) ~scoring:(Trex.scoring engine) ~runs
          ~prefix_rpls:true q)
      (Trex.Workload.queries workload)
  in
  List.iter
    (fun (p : Trex.Cost.profile) ->
      Printf.printf
        "  %s: f=%.2f ERA %7.2fms Merge %7.2fms TA %7.2fms | ERPLs %s RPLs %s%s\n"
        p.id p.frequency (p.time_era *. 1e3) (p.time_merge *. 1e3) (p.time_ta *. 1e3)
        (human_bytes (List.fold_left (fun a (_, b) -> a + b) 0 p.erpl_lists))
        (human_bytes (List.fold_left (fun a (_, b) -> a + b) 0 p.rpl_lists))
        (match p.rpl_prefix with
        | Some d -> Printf.sprintf " (prefix %d/list)" d
        | None -> ""))
    profiles;
  let full = Trex.Advisor.greedy ~budget:max_int profiles in
  let total_bytes = full.bytes_used in
  Printf.printf "\nfull materialization of best choices: %s, saving %.2f ms\n"
    (human_bytes total_bytes)
    (full.expected_saving *. 1e3);
  Printf.printf "%8s | %-26s %11s | %-26s %11s | %5s\n" "budget" "greedy choices"
    "saving(ms)" "optimal choices" "saving(ms)" "2-apx";
  List.iter
    (fun pct ->
      let budget = total_bytes * pct / 100 in
      let g = Trex.Advisor.greedy ~budget profiles in
      let o = Trex.Advisor.branch_and_bound ~budget profiles in
      let show plan =
        String.concat ","
          (List.filter_map
             (fun (id, c) ->
               match c with
               | Trex.Advisor.No_index -> None
               | Trex.Advisor.Use_erpl -> Some (id ^ ":M")
               | Trex.Advisor.Use_rpl -> Some (id ^ ":T"))
             plan.Trex.Advisor.decisions)
      in
      Printf.printf "%7d%% | %-26s %11.2f | %-26s %11.2f | %5s\n" pct (show g)
        (g.expected_saving *. 1e3) (show o) (o.expected_saving *. 1e3)
        (if o.expected_saving <= (2.0 *. g.expected_saving) +. 1e-12 then "OK"
         else "VIOLATED"))
    [ 10; 25; 50; 75; 100 ];
  (* The prefix_rpls measurement left some RPLs truncated on the shared
     engine; restore complete lists for the sections that follow. *)
  let index = Trex.index engine in
  Trex.Rpl.drop_lists index
    (List.filter_map
       (fun (term, sid, _, _) ->
         if Trex.Rpl.list_bound index Trex.Rpl.Rpl ~term ~sid > 0.0 then
           Some (Trex.Rpl.Rpl, term, sid)
         else None)
       (Trex.Rpl.catalog index Trex.Rpl.Rpl));
  List.iter
    (fun (q : Queries.t) ->
      if q.collection = Queries.Ieee then ignore (Trex.materialize engine q.nexi))
    Queries.all

(* ---- section: ablation ---- *)

let section_ablation () =
  header "ABLATION: summary variant and scorer choice";
  let coll = coll_for Queries.Ieee in
  let variants =
    [
      ("tag", Summary.Tag, Trex.Alias.identity);
      ("alias tag", Summary.Tag, coll.alias);
      ("incoming", Summary.Incoming, Trex.Alias.identity);
      ("alias incoming", Summary.Incoming, coll.alias);
    ]
  in
  Printf.printf "%-16s %-6s %6s %9s %10s %9s\n" "summary" "query" "#sids" "#answers"
    "ERA ms" "nest-free";
  List.iter
    (fun (name, criterion, alias) ->
      let env = Trex.Env.in_memory () in
      let engine = Trex.build ~env ~summary_criterion:criterion ~alias (coll.docs ()) in
      (* A summary that is not nesting-free (paper §2.1) breaks ERA's
         one-element-per-extent invariant; the row is still shown to
         quantify what the constraint costs. *)
      let nest_free = Summary.nesting_free (Trex.summary engine) in
      List.iter
        (fun id ->
          let q = Queries.find id in
          let tr = Trex.translate engine (Trex.parse engine q.nexi) in
          let sids = Translate.all_sids tr and terms = Translate.all_terms tr in
          let o =
            Strategy.evaluate (Trex.index engine) ~scoring:(Trex.scoring engine) ~sids
              ~terms ~k:max_int Strategy.Era_method
          in
          let t =
            robust_time (run_method engine ~sids ~terms ~k:max_int Strategy.Era_method)
          in
          Printf.printf "%-16s %-6s %6d %9d %10.2f %9s\n" name id (List.length sids)
            (List.length o.Strategy.answers)
            (t *. 1000.0)
            (if nest_free then "yes" else "NO"))
        [ "202"; "270" ])
    variants;
  (* A(k) sweep: how the A(k)-index family trades summary size for
     sid-set precision (k=1 ~ tag, large k ~ incoming). *)
  Printf.printf "\nA(k) sweep (alias mapping applied):\n";
  Printf.printf "%-10s %7s %6s %6s %9s\n" "summary" "nodes" "q202" "q270" "nest-free";
  List.iter
    (fun k ->
      let env = Trex.Env.in_memory () in
      let engine =
        Trex.build ~env ~summary_criterion:(Summary.A_k k) ~alias:coll.alias
          (coll.docs ())
      in
      let sid_count id =
        let q = Queries.find id in
        List.length
          (Translate.all_sids (Trex.translate engine (Trex.parse engine q.nexi)))
      in
      Printf.printf "%-10s %7d %6d %6d %9s\n"
        (Printf.sprintf "A(%d)" k)
        (Summary.node_count (Trex.summary engine))
        (sid_count "202") (sid_count "270")
        (if Summary.nesting_free (Trex.summary engine) then "yes" else "NO"))
    [ 1; 2; 3; 4 ];
  (* Scorer ablation: BM25 vs TF-IDF top-10 overlap on Q270. *)
  let q = Queries.find "270" in
  let bm25 = engine_for Queries.Ieee in
  let env2 = Trex.Env.in_memory () in
  let tfidf =
    Trex.build ~env:env2 ~alias:coll.alias ~scoring:Trex.Scorer.Tf_idf (coll.docs ())
  in
  let top10 engine =
    (Trex.query engine ~k:10 ~method_:Strategy.Era_method q.nexi).Trex.strategy
      .Strategy.answers
    |> List.map (fun (e : Trex.Answer.entry) ->
           (e.element.Trex.Types.docid, e.element.Trex.Types.endpos))
  in
  let a = top10 bm25 and b = top10 tfidf in
  let overlap = List.length (List.filter (fun x -> List.mem x b) a) in
  Printf.printf "\nscorer ablation (Q270): BM25 vs TF-IDF top-10 overlap = %d/10\n"
    overlap

(* ---- section: io (pager cache sweep) ---- *)

let section_io () =
  header "STORAGE I/O: page-cache size vs physical reads (on-disk index)";
  let dir = Filename.temp_file "trex_bench_io" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let coll = Gen.ieee ~doc_count:(if !quick then 60 else 150) ~seed:77 () in
  (* Build once with a generous cache. *)
  let build_env = Trex.Env.on_disk ~cache_pages:8192 dir in
  let engine = Trex.build ~env:build_env ~alias:coll.alias (coll.docs ()) in
  let q = Queries.find "270" in
  let tr = Trex.translate engine (Trex.parse engine q.nexi) in
  let sids = Translate.all_sids tr and terms = Translate.all_terms tr in
  ignore
    (Trex.Rpl.build (Trex.index engine) ~scoring:(Trex.scoring engine) ~sids ~terms
       ~kinds:[ Trex.Rpl.Rpl; Trex.Rpl.Erpl ] ());
  Trex.Env.close build_env;
  Printf.printf "%12s | %12s %12s %12s | %10s\n" "cache pages" "phys reads"
    "cache hits" "hit ratio" "ERA ms";
  List.iter
    (fun cache_pages ->
      let env = Trex.Env.on_disk ~cache_pages dir in
      let engine = Trex.attach ~env () in
      let t =
        robust_time (fun () ->
            ignore
              (Strategy.evaluate (Trex.index engine) ~scoring:(Trex.scoring engine)
                 ~sids ~terms ~k:max_int Strategy.Era_method))
      in
      let reads, hits =
        List.fold_left
          (fun (r, h) (_, (s : Trex_storage.Pager.stats)) ->
            (r + s.physical_reads, h + s.cache_hits))
          (0, 0) (Trex.Env.io_stats env)
      in
      let ratio =
        if reads + hits = 0 then 0.0
        else float_of_int hits /. float_of_int (reads + hits)
      in
      Bench_out.record ~section:"io" ~query:"270" ~strategy:"ERA" ~k:0
        ~ms:(t *. 1e3)
        [
          ("cache_pages", cache_pages);
          ("physical_reads", reads);
          ("cache_hits", hits);
        ];
      Printf.printf "%12d | %12d %12d %11.1f%% | %10.2f\n" cache_pages reads hits
        (100.0 *. ratio) (t *. 1e3);
      Trex.Env.close env)
    [ 8; 32; 128; 1024; 8192 ];
  Bench_out.flush ~quick:!quick "io"

(* ---- section: ingest (the durable write path) ---- *)

(* Row counter name, process-wide metric. *)
let ingest_counters =
  [
    ("manifest_frames", "manifest.appends");
    ("manifest_bytes", "manifest.bytes");
    ("manifest_fsyncs", "manifest.fsyncs");
    ("pager_fsyncs", "pager.fsyncs");
    ("dir_fsyncs", "env.dir_fsyncs");
    ("physical_writes", "pager.physical_writes");
    ("node_splits", "bptree.node_splits");
  ]

(* A fixed probe, the same with --quick: IEEE-100 on disk with the
   lists of four queries, then six cycles of ten durable adds, a
   checkpoint and the lists rematerialized. Each cycle row counts its
   adds and the checkpoint that makes them durable in the tables (not
   the rematerialization); its ms is the cycle's median add. *)
let section_ingest () =
  header "INGEST: durable add_document (IEEE-100, then 6 cycles of 10 adds)";
  let module Metrics = Trex_obs.Metrics in
  let dir = Filename.temp_file "trex_bench_ingest" "" in
  Sys.remove dir;
  let coll = Gen.ieee ~doc_count:160 ~seed:91 () in
  let docs = Array.of_seq (coll.docs ()) in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias (Array.to_seq (Array.sub docs 0 100)) in
  let queries = List.map Queries.find [ "202"; "203"; "233"; "270" ] in
  let remat () = List.iter (fun (q : Queries.t) -> ignore (Trex.materialize engine q.nexi)) queries in
  remat ();
  let value name = Metrics.value (Metrics.counter name) in
  let snapshot () = List.map (fun (_, metric) -> value metric) ingest_counters in
  let delta before = List.map2 (fun (row, metric) b -> (row, value metric - b)) ingest_counters before in
  let cycles = 6 and batch = 10 in
  Printf.printf "%-7s %8s %7s %9s %7s %7s %7s %8s %7s\n" "cycle" "p50 ms" "frames" "mf bytes"
    "mf fsync" "pg fsync" "dir fs" "writes" "splits";
  let totals = ref (List.map (fun (row, _) -> (row, 0)) ingest_counters) in
  let all_times = ref [] in
  let print_row label ms counters =
    let c name = List.assoc name counters in
    Printf.printf "%-7s %8.2f %7d %9d %7d %7d %7d %8d %7d\n%!" label ms (c "manifest_frames")
      (c "manifest_bytes") (c "manifest_fsyncs") (c "pager_fsyncs") (c "dir_fsyncs")
      (c "physical_writes") (c "node_splits")
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  for cycle = 0 to cycles - 1 do
    let before = snapshot () in
    let times =
      List.init batch (fun i ->
          let name, xml = docs.(100 + (cycle * batch) + i) in
          snd (time_once (fun () -> Trex.add_document engine ~name ~xml)))
    in
    Trex.Env.checkpoint env;
    let counters = delta before in
    totals := List.map2 (fun (row, t) (_, v) -> (row, t + v)) !totals counters;
    all_times := times @ !all_times;
    let label = Printf.sprintf "cycle%d" cycle in
    Bench_out.record ~section:"ingest" ~query:label ~strategy:"add_document" ~k:batch
      ~ms:(median times *. 1e3)
      (("adds", batch) :: counters);
    print_row label (median times *. 1e3) counters;
    remat ()
  done;
  let adds = cycles * batch in
  let p50 = median !all_times *. 1e3 in
  Bench_out.record ~section:"ingest" ~query:"total" ~strategy:"add_document" ~k:adds ~ms:p50
    (("adds", adds) :: !totals);
  print_row "total" p50 !totals;
  Printf.printf "per add: %s\n"
    (String.concat ", "
       (List.map
          (fun (row, v) -> Printf.sprintf "%s %.2f" row (float_of_int v /. float_of_int adds))
          !totals));
  Trex.Env.close env;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Bench_out.flush ~quick:!quick "ingest"

(* ---- section: compression (block-compressed storage) ---- *)

let section_compression () =
  header "COMPRESSION: block-compressed storage (on-disk, per Table-1 query)";
  let k = 10 in
  let collection = function
    | Queries.Ieee -> Gen.ieee ~doc_count:(if !quick then 60 else 150) ~seed:77 ()
    | Queries.Wikipedia ->
        Gen.wikipedia ~doc_count:(if !quick then 100 else 250) ~seed:77 ()
  in
  let reads_of env =
    List.fold_left
      (fun r (_, (s : Trex_storage.Pager.stats)) -> r + s.physical_reads)
      0 (Trex.Env.io_stats env)
  in
  Printf.printf "%-5s %-5s | %9s %9s %9s | %-13s %-13s %-13s\n" "query" "coll"
    "postings" "RPLs" "ERPLs" "ERA rd/ms" "TA rd/ms" "Merge rd/ms";
  (* One fresh on-disk environment per query, holding only that query's
     RPLs and ERPLs, so each row prices exactly one query's lists. *)
  List.iter
    (fun (q : Queries.t) ->
      let coll = collection q.collection in
      let dir = Filename.temp_file "trex_bench_comp" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let build_env = Trex.Env.on_disk ~cache_pages:8192 dir in
      let engine = Trex.build ~env:build_env ~alias:coll.alias (coll.docs ()) in
      let tr = Trex.translate engine (Trex.parse engine q.nexi) in
      let sids = Translate.all_sids tr and terms = Translate.all_terms tr in
      ignore
        (Trex.Rpl.build (Trex.index engine) ~scoring:(Trex.scoring engine) ~sids
           ~terms ~kinds:[ Trex.Rpl.Rpl; Trex.Rpl.Erpl ] ());
      let sizes = Trex.table_sizes engine in
      (* Exhaustive ERA over the same storage is the reference: every
         strategy must return its top k — same elements, same order —
         with ERA's scores. ERA and Merge sum an element's term scores in
         term order, so theirs must match bit for bit; TA sums them in
         arrival order, which can move the last bit of a three-term
         score, so TA's may differ by 1e-9 at most. A mismatch fails the
         bench run. *)
      let exhaustive =
        let index = Trex.index engine in
        Trex.Answer.top_k
          (Trex.Era.score_results index ~scoring:(Trex.scoring engine) ~terms
             (fst (Trex.Era.run index ~sids ~terms)))
          k
      in
      Trex.Env.close build_env;
      Bench_out.record ~section:"compression" ~query:q.id
        ~strategy:"sizes-compressed" ~k:0 ~ms:0.0
        [
          ("postings_bytes", sizes.postings_bytes);
          ("rpls_bytes", sizes.rpls_bytes);
          ("erpls_bytes", sizes.erpls_bytes);
        ];
      (* Cold-cache physical reads (fresh attach, tiny cache) per
         strategy, then warm timings under the usual protocol. *)
      let cells =
        List.map
          (fun (label, method_) ->
            let env = Trex.Env.on_disk ~cache_pages:32 dir in
            let engine = Trex.attach ~env () in
            let index = Trex.index engine and scoring = Trex.scoring engine in
            let before = reads_of env in
            let outcome = Strategy.evaluate index ~scoring ~sids ~terms ~k method_ in
            let reads = reads_of env - before in
            let eps = if method_ = Strategy.Ta_method then 1e-9 else 0.0 in
            if
              not
                (Trex.Answer.equal ~eps exhaustive
                   (Trex.Answer.top_k outcome.Strategy.answers k))
            then
              failwith
                (Printf.sprintf
                   "compression: query %s %s answers differ from exhaustive ERA"
                   q.id label);
            let t =
              robust_time (fun () ->
                  ignore (Strategy.evaluate index ~scoring ~sids ~terms ~k method_))
            in
            Bench_out.record ~section:"compression" ~query:q.id
              ~strategy:(label ^ "-compressed") ~k ~ms:(t *. 1e3)
              [ ("physical_reads", reads) ];
            (* Merge again directly for the block-decode accounting the
               strategy façade hides. *)
            if label = "Merge" then begin
              let _, ms = Trex.Merge.run index ~sids ~terms in
              Bench_out.record ~section:"compression" ~query:q.id
                ~strategy:"Merge-blocks-compressed" ~k ~ms:0.0
                [
                  ("blocks_decoded", ms.Trex.Merge.blocks_decoded);
                  ("entries_read", ms.Trex.Merge.entries_read);
                ]
            end;
            Trex.Env.close env;
            Printf.sprintf "%4d %8.2f" reads (t *. 1e3))
          [
            ("ERA", Strategy.Era_method);
            ("TA", Strategy.Ta_method);
            ("Merge", Strategy.Merge_method);
          ]
      in
      Printf.printf "%-5s %-5s | %9s %9s %9s | %s\n%!" q.id
        (match q.collection with Queries.Ieee -> "ieee" | Queries.Wikipedia -> "wiki")
        (human_bytes sizes.postings_bytes)
        (human_bytes sizes.rpls_bytes)
        (human_bytes sizes.erpls_bytes)
        (String.concat " | " cells))
    Queries.all;
  Printf.printf
    "rank identity: ERA/TA/Merge top-%d = exhaustive ERA (ERA/Merge scores bit \
     for bit, TA within 1e-9)\n"
    k;
  Bench_out.flush ~quick:!quick "compression"

(* ---- section: shard ---- *)

let section_shard () =
  header "SHARDED SCATTER-GATHER: shard count vs latency, degradation, rebalance";
  let coll = Gen.ieee ~doc_count:(if !quick then 40 else 120) ~seed:88 () in
  let docs = List.of_seq (coll.docs ()) in
  let q = Queries.find "270" in
  let k = 10 in
  (* Single-environment reference point. *)
  let env = Trex.Env.in_memory () in
  let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
  let t_single = robust_time (fun () -> ignore (Trex.query engine ~k q.nexi)) in
  Bench_out.record ~section:"shard" ~query:q.id ~strategy:"single-env" ~k
    ~ms:(t_single *. 1e3)
    [ ("shards", 1); ("degraded_shards", 0) ];
  Printf.printf "%12s | %10s %14s %15s\n" "shards" "ms" "entries read"
    "degraded shards";
  Printf.printf "%12s | %10.2f %14s %15d\n" "single-env" (t_single *. 1e3) "-" 0;
  List.iter
    (fun n ->
      let dir = Filename.temp_file "trex_bench_shard" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let t = Shard.create ~dir ~shards:n ~alias:coll.alias docs in
      let tq = robust_time (fun () -> ignore (Shard.query t ~k q.nexi)) in
      let r = Shard.query t ~k q.nexi in
      let entries =
        List.fold_left
          (fun acc (s : Shard.shard_report) -> acc + s.Shard.r_entries_read)
          0 r.Shard.reports
      in
      Bench_out.record ~section:"shard" ~query:q.id ~strategy:"scatter-gather" ~k
        ~ms:(tq *. 1e3)
        [
          ("shards", n);
          ("entries_read", entries);
          ("degraded_shards", List.length r.Shard.degraded_shards);
        ];
      Printf.printf "%12d | %10.2f %14d %15d\n" n (tq *. 1e3) entries
        (List.length r.Shard.degraded_shards);
      if n = 4 then begin
        (* Degraded serving: an already-expired deadline skips every
           shard — the floor cost of answering from nothing. *)
        let td =
          robust_time (fun () -> ignore (Shard.query t ~k ~deadline_ms:0.0 q.nexi))
        in
        let rd = Shard.query t ~k ~deadline_ms:0.0 q.nexi in
        Bench_out.record ~section:"shard" ~query:q.id ~strategy:"degraded" ~k
          ~ms:(td *. 1e3)
          [ ("shards", n); ("degraded_shards", List.length rd.Shard.degraded_shards) ];
        Printf.printf "%12s | %10.2f %14s %15d\n" "deadline=0" (td *. 1e3) "-"
          (List.length rd.Shard.degraded_shards);
        (* Rebalance cost, timed once — split and merge mutate the map. *)
        let (a, b), t_split = time_once (fun () -> Shard.split t "shard-001") in
        let _, t_merge = time_once (fun () -> Shard.merge t a.Shard.name b.Shard.name) in
        let t_split = t_split *. 1e3 and t_merge = t_merge *. 1e3 in
        Bench_out.record ~section:"shard" ~query:q.id ~strategy:"split" ~k
          ~ms:t_split [ ("shards", n) ];
        Bench_out.record ~section:"shard" ~query:q.id ~strategy:"merge" ~k
          ~ms:t_merge [ ("shards", n) ];
        Printf.printf "%12s | %10.2f\n" "split" t_split;
        Printf.printf "%12s | %10.2f\n" "merge" t_merge
      end;
      Shard.close t)
    [ 1; 2; 4; 8 ];
  Bench_out.flush ~quick:!quick "shard"

(* ---- section: shard_proc ---- *)

let section_shard_proc () =
  header
    "PROCESS-ISOLATED WORKERS: supervised scatter vs in-process coordinator";
  let coll = Gen.ieee ~doc_count:(if !quick then 40 else 120) ~seed:88 () in
  let docs = List.of_seq (coll.docs ()) in
  let q = Queries.find "270" in
  let k = 10 in
  let answer_sig (r : Shard.result) =
    List.map
      (fun (e : Trex.Answer.entry) ->
        ( e.Trex.Answer.element.Trex.Types.docid,
          e.Trex.Answer.element.Trex.Types.endpos,
          e.Trex.Answer.score ))
      r.Shard.answers
  in
  Printf.printf "%8s | %12s %12s %12s\n" "shards" "in-proc ms" "process ms"
    "spawn ms";
  List.iter
    (fun n ->
      let dir = Filename.temp_file "trex_bench_sproc" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let t = Shard.create ~dir ~shards:n ~alias:coll.alias docs in
      let t_in = robust_time (fun () -> ignore (Shard.query t ~k q.nexi)) in
      let in_sig = answer_sig (Shard.query t ~k q.nexi) in
      Shard.close t;
      Bench_out.record ~section:"shard_proc" ~query:q.id ~strategy:"in-process"
        ~k ~ms:(t_in *. 1e3)
        [ ("shards", n); ("degraded_shards", 0) ];
      (* Spawn + readiness handshake, timed once: fork/exec every worker
         and wait for all Hellos — a per-open cost, not per-query. *)
      let t0 = Trex_util.Stopclock.now () in
      let sup = Supervisor.create dir in
      if not (Supervisor.await_healthy sup) then
        failwith "shard_proc: workers never became healthy";
      let t_spawn = (Trex_util.Stopclock.now () -. t0) *. 1e3 in
      Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
      let t_proc = robust_time (fun () -> ignore (Supervisor.query sup ~k q.nexi)) in
      let r = Supervisor.query sup ~k q.nexi in
      if r.Shard.degraded_shards <> [] then
        failwith "shard_proc: healthy scatter came back degraded";
      if answer_sig r <> in_sig then
        failwith
          "shard_proc: process-path answers differ from the in-process \
           coordinator";
      Bench_out.record ~section:"shard_proc" ~query:q.id ~strategy:"process" ~k
        ~ms:(t_proc *. 1e3)
        [ ("shards", n); ("degraded_shards", 0) ];
      Bench_out.record ~section:"shard_proc" ~query:q.id ~strategy:"spawn" ~k
        ~ms:t_spawn [ ("shards", n) ];
      Printf.printf "%8d | %12.2f %12.2f %12.2f\n" n (t_in *. 1e3)
        (t_proc *. 1e3) t_spawn)
    [ 2; 4 ];
  Printf.printf "rank identity: process scatter bit-identical to in-process\n";
  Bench_out.flush ~quick:!quick "shard_proc"

(* ---- section: telemetry ---- *)

(* What the cross-process harvest costs: the same supervised scatter
   with telemetry off, with span tracing on (workers trace and ship
   their trees over the wire), and with tracing + journaling (the
   coordinator's scatter appends one record per query, from the terms
   and counter deltas the workers ship anyway). *)
let section_telemetry () =
  header "TELEMETRY: cross-process harvest overhead on supervised scatter";
  let coll = Gen.ieee ~doc_count:(if !quick then 40 else 120) ~seed:88 () in
  let docs = List.of_seq (coll.docs ()) in
  let q = Queries.find "270" in
  let k = 10 in
  let dir = Filename.temp_file "trex_bench_telem" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Shard.close (Shard.create ~dir ~shards:3 ~alias:coll.alias docs);
  let sup = Supervisor.create dir in
  if not (Supervisor.await_healthy sup) then
    failwith "telemetry: workers never became healthy";
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let timed ~trace ~journal =
    Trex.Obs.Span.set_enabled trace;
    Trex.Obs.Journal.set_enabled journal;
    Fun.protect
      ~finally:(fun () ->
        Trex.Obs.Span.set_enabled false;
        Trex.Obs.Journal.set_enabled false;
        Trex.Obs.Span.reset ())
      (fun () -> robust_time (fun () -> ignore (Supervisor.query sup ~k q.nexi)))
  in
  let t_off = timed ~trace:false ~journal:false in
  let t_trace = timed ~trace:true ~journal:false in
  let t_full = timed ~trace:true ~journal:true in
  let pct t = (t /. t_off -. 1.0) *. 100.0 in
  Printf.printf "%-16s | %10s %10s\n" "mode" "ms" "overhead";
  Printf.printf "%-16s | %10.2f %10s\n" "off" (t_off *. 1e3) "-";
  Printf.printf "%-16s | %10.2f %9.1f%%\n" "trace" (t_trace *. 1e3) (pct t_trace);
  Printf.printf "%-16s | %10.2f %9.1f%%\n" "trace+journal" (t_full *. 1e3)
    (pct t_full);
  Bench_out.record ~section:"telemetry" ~query:q.id ~strategy:"off" ~k
    ~ms:(t_off *. 1e3) [ ("shards", 3) ];
  Bench_out.record ~section:"telemetry" ~query:q.id ~strategy:"trace" ~k
    ~ms:(t_trace *. 1e3) [ ("shards", 3) ];
  Bench_out.record ~section:"telemetry" ~query:q.id ~strategy:"trace+journal"
    ~k ~ms:(t_full *. 1e3) [ ("shards", 3) ];
  Bench_out.flush ~quick:!quick "telemetry"

(* ---- section: serve ---- *)

(* The network front door: what the framed TCP transport and admission
   control add on top of a direct query (closed-loop sustained rate,
   p50/p99), whether shedding holds the "every request terminates as
   answer or typed Shed" contract once offered load is pushed to 2x
   the measured capacity against a short queue, and what moving a
   supervised worker from a socketpair to a loopback-TCP listener
   costs per scatter. *)
let section_serve () =
  header "SERVE: front-door overhead, overload shedding, worker transport";
  let module Serve = Trex_serve.Serve in
  let module Wire = Trex_shard.Wire in
  let coll = Gen.ieee ~doc_count:(if !quick then 30 else 80) ~seed:88 () in
  let docs = List.of_seq (coll.docs ()) in
  let q = Queries.find "270" in
  let k = 10 in
  let dir = Filename.temp_file "trex_bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let build_env = Trex.Env.on_disk dir in
  ignore (Trex.build ~env:build_env ~alias:coll.alias (List.to_seq docs));
  Trex.Env.close build_env;
  let answer_sig answers =
    List.map
      (fun (e : Trex.Answer.entry) ->
        ( e.Trex.Answer.element.Trex.Types.docid,
          e.Trex.Answer.element.Trex.Types.endpos,
          e.Trex.Answer.score ))
      answers
  in
  (* Direct baseline: same on-disk env, no transport, no queue. *)
  let t_direct, direct_sig =
    let env = Trex.Env.on_disk dir in
    let engine = Trex.attach ~env () in
    Fun.protect ~finally:(fun () -> Trex.Env.close env) @@ fun () ->
    let t = robust_time (fun () -> ignore (Trex.query engine ~k q.nexi)) in
    let o = Trex.query engine ~k q.nexi in
    (t, answer_sig (Trex.Answer.top_k o.Trex.strategy.Strategy.answers k))
  in
  let fork_server ?(policy = Serve.default_policy) dir =
    let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen Unix.SO_REUSEADDR true;
    Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen listen 64;
    let port =
      match Unix.getsockname listen with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let code =
          try Serve.run ~policy ~listen_fd:listen ~dir ~addr:"-" ()
          with _ -> 9
        in
        Unix._exit code
    | pid ->
        Unix.close listen;
        (pid, Printf.sprintf "127.0.0.1:%d" port)
  in
  let with_server ?policy dir f =
    let pid, addr = fork_server ?policy dir in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () -> f addr)
  in
  let cq =
    {
      Wire.c_nexi = q.nexi;
      c_k = k;
      c_method = None;
      c_strict = false;
      c_deadline_ms = Some 10_000.0;
      c_page_budget = None;
    }
  in
  (* Closed loop on one connection: sustained rate and percentiles. *)
  let n_seq = if !quick then 40 else 150 in
  let lat =
    with_server dir @@ fun addr ->
    let c = Serve.Client.connect addr in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.request c cq with
    | Serve.Client.Answer a ->
        if answer_sig a.Wire.ca_answers <> direct_sig then
          failwith "serve: front-door answers differ from the direct query"
    | _ -> failwith "serve: warmup request did not answer");
    Array.init n_seq (fun _ ->
        let t0 = Trex_util.Stopclock.now () in
        match Serve.Client.request c cq with
        | Serve.Client.Answer _ -> Trex_util.Stopclock.now () -. t0
        | _ -> failwith "serve: unloaded request was shed")
  in
  Array.sort compare lat;
  let mean = Array.fold_left ( +. ) 0.0 lat /. float_of_int n_seq in
  let pct p =
    lat.(min (n_seq - 1) (int_of_float (p *. float_of_int (n_seq - 1) +. 0.5)))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let qps = 1.0 /. mean in
  Bench_out.record ~section:"serve" ~query:q.id ~strategy:"direct" ~k
    ~ms:(t_direct *. 1e3) [];
  Bench_out.record ~section:"serve" ~query:q.id ~strategy:"sequential" ~k
    ~ms:(mean *. 1e3)
    [
      ("qps", int_of_float qps);
      ("p50_us", int_of_float (p50 *. 1e6));
      ("p99_us", int_of_float (p99 *. 1e6));
    ];
  Printf.printf "%-18s | %10.3f ms\n" "direct (no net)" (t_direct *. 1e3);
  Printf.printf
    "%-18s | %10.3f ms  p50 %.3f  p99 %.3f  (%.0f qps sustained)\n"
    "front door" (mean *. 1e3) (p50 *. 1e3) (p99 *. 1e3) qps;
  (* Offered load at 2x the measured capacity against a short queue:
     every request must still terminate as exactly one of answer or
     typed Shed — overload makes the server fast and honest. *)
  let offered_qps = 2.0 *. qps in
  let n_over =
    max 24 (int_of_float (offered_qps *. if !quick then 1.0 else 2.0))
  in
  let n_conns = 4 in
  let answered = ref 0 and shed = ref 0 in
  let t_over =
    with_server ~policy:{ Serve.default_policy with queue_limit = 4 } dir
    @@ fun addr ->
    let conns = Array.init n_conns (fun _ -> Serve.Client.connect addr) in
    Fun.protect ~finally:(fun () -> Array.iter Serve.Client.close conns)
    @@ fun () ->
    let interval = 1.0 /. offered_qps in
    let t0 = Trex_util.Stopclock.now () in
    for i = 0 to n_over - 1 do
      Serve.Client.send conns.(i mod n_conns) (Wire.Client_query cq);
      let d = t0 +. (float_of_int (i + 1) *. interval) -. Trex_util.Stopclock.now () in
      if d > 0.0 then Unix.sleepf d
    done;
    Array.iteri
      (fun ci c ->
        for _ = 1 to (n_over - ci + n_conns - 1) / n_conns do
          match Serve.Client.collect_terminal ~timeout_s:60.0 c with
          | Serve.Client.Answer _ -> incr answered
          | Serve.Client.Shed _ -> incr shed
          | Serve.Client.Draining ->
              failwith "serve: server drained mid-overload"
        done)
      conns;
    Trex_util.Stopclock.now () -. t0
  in
  if !answered + !shed <> n_over then
    failwith "serve: a request terminated as neither answer nor Shed";
  let shed_pct = 100.0 *. float_of_int !shed /. float_of_int n_over in
  Bench_out.record ~section:"serve" ~query:q.id ~strategy:"overload-2x" ~k
    ~ms:(t_over *. 1e3)
    [
      ("offered_qps", int_of_float offered_qps);
      ("answered", !answered);
      ("shed", !shed);
      ("shed_pct", int_of_float shed_pct);
    ];
  Printf.printf
    "%-18s | offered %.0f qps: %d answered, %d shed (%.0f%%), all terminal\n"
    "overload 2x" offered_qps !answered !shed shed_pct;
  (* Worker transport: the same 2-shard supervised scatter with
     socketpair children vs loopback-TCP listeners. *)
  let sdir = Filename.temp_file "trex_bench_serve_sh" "" in
  Sys.remove sdir;
  Unix.mkdir sdir 0o755;
  Shard.close (Shard.create ~dir:sdir ~shards:2 ~alias:coll.alias docs);
  let timed_scatter ?remote () =
    let sup = Supervisor.create ?remote sdir in
    Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
    if not (Supervisor.await_healthy sup) then
      failwith "serve: workers never became healthy";
    let r = Supervisor.query sup ~k q.nexi in
    if r.Shard.degraded_shards <> [] then
      failwith "serve: healthy scatter came back degraded";
    robust_time (fun () -> ignore (Supervisor.query sup ~k q.nexi))
  in
  let t_pair = timed_scatter () in
  let spawn_listen_worker ~dir ~shard =
    let r, w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        Unix.dup2 w Unix.stderr;
        if w <> Unix.stderr then Unix.close w;
        let prog = Sys.executable_name in
        let argv =
          [| prog; "shard-worker"; "--dir"; dir; "--shard"; shard;
             "--listen"; "127.0.0.1:0" |]
        in
        (try Unix.execv prog argv with _ -> ());
        exit 127
    | pid ->
        Unix.close w;
        let buf = Buffer.create 64 in
        let chunk = Bytes.create 256 in
        let rec find () =
          let s = Buffer.contents buf in
          match String.index_opt s '\n' with
          | Some i ->
              let line = String.sub s 0 i in
              Buffer.clear buf;
              Buffer.add_string buf
                (String.sub s (i + 1) (String.length s - i - 1));
              if String.length line > 10 && String.sub line 0 10 = "LISTENING "
              then String.sub line 10 (String.length line - 10)
              else find ()
          | None -> (
              match Unix.read r chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "serve: listen worker died before announcing"
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  find ())
        in
        let addr = find () in
        (pid, r, addr)
  in
  let workers =
    List.map
      (fun (i : Shard.shard_info) ->
        (i.Shard.name, spawn_listen_worker ~dir:sdir ~shard:i.Shard.name))
      (Shard.load_map sdir)
  in
  let t_tcp =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (_, (pid, r, _)) ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            try Unix.close r with Unix.Unix_error _ -> ())
          workers)
      (fun () ->
        timed_scatter
          ~remote:(List.map (fun (n, (_, _, a)) -> (n, a)) workers)
          ())
  in
  Bench_out.record ~section:"serve" ~query:q.id ~strategy:"worker-socketpair"
    ~k ~ms:(t_pair *. 1e3) [ ("shards", 2) ];
  Bench_out.record ~section:"serve" ~query:q.id ~strategy:"worker-tcp" ~k
    ~ms:(t_tcp *. 1e3) [ ("shards", 2) ];
  Printf.printf "%-18s | %10.3f ms per scatter (2 shards)\n"
    "worker socketpair" (t_pair *. 1e3);
  Printf.printf "%-18s | %10.3f ms per scatter (2 shards, loopback TCP)\n"
    "worker tcp" (t_tcp *. 1e3);
  Bench_out.flush ~quick:!quick "serve"

(* ---- section: effectiveness ---- *)

(* The generator records which topics each document was written around;
   treating "document mentions the query's topic" as the relevance
   judgment gives synthetic qrels, so retrieval effectiveness — the
   other half of the paper's opening challenge — can be scored with
   standard metrics. *)
let query_topic =
  [
    ("202", "semantic-web"); ("203", "security"); ("233", "audio");
    ("260", "verification"); ("270", "ir"); ("290", "evolutionary");
    ("292", "art");
  ]

let section_effectiveness () =
  header "EFFECTIVENESS: P@10 / MAP / nDCG@10 against topic ground truth";
  let module Qrels = Trex_relevance.Qrels in
  let module Metrics = Trex_relevance.Metrics in
  let qrels_for cid topic =
    let coll = coll_for cid in
    let rec build t i =
      if i >= coll.doc_count then t
      else
        let t =
          if List.mem topic (coll.topics i) then
            Qrels.add t ~query:topic ~docid:i ~grade:1
          else t
        in
        build t (i + 1)
    in
    build Qrels.empty 0
  in
  let ranking_of answers =
    List.map (fun (e : Trex.Answer.entry) -> e.element.Trex.Types.docid) answers
  in
  Printf.printf "%-5s %-13s %5s | %7s %7s %8s | %7s\n" "query" "topic" "#rel" "P@10"
    "MAP" "nDCG@10" "random";
  List.iter
    (fun (q : Queries.t) ->
      let topic = List.assoc q.id query_topic in
      let engine = engine_for q.collection in
      let qrels = qrels_for q.collection topic in
      let o = Trex.query engine ~k:100000 ~method_:Strategy.Era_method q.nexi in
      let ranking = ranking_of o.Trex.strategy.Strategy.answers in
      let p10 = Metrics.precision_at qrels ~query:topic ~k:10 ranking in
      let map = Metrics.average_precision qrels ~query:topic ranking in
      let ndcg = Metrics.ndcg_at qrels ~query:topic ~k:10 ranking in
      (* Baseline: expected P@10 of a random ranking = prevalence. *)
      let coll = coll_for q.collection in
      let prevalence =
        float_of_int (Qrels.relevant_count qrels ~query:topic)
        /. float_of_int coll.doc_count
      in
      Printf.printf "%-5s %-13s %5d | %7.3f %7.3f %8.3f | %7.3f\n" q.id topic
        (Qrels.relevant_count qrels ~query:topic)
        p10 map ndcg prevalence)
    Queries.all;
  (* Scorer ablation on effectiveness. *)
  let coll = coll_for Queries.Ieee in
  let env = Trex.Env.in_memory () in
  let tfidf = Trex.build ~env ~alias:coll.alias ~scoring:Trex.Scorer.Tf_idf (coll.docs ()) in
  Printf.printf "\nscorer comparison (IEEE queries, mean over queries):\n";
  List.iter
    (fun (name, engine) ->
      let scores =
        List.map
          (fun (q : Queries.t) ->
            let topic = List.assoc q.id query_topic in
            let qrels = qrels_for Queries.Ieee topic in
            let o = Trex.query engine ~k:100000 ~method_:Strategy.Era_method q.nexi in
            Metrics.average_precision qrels ~query:topic
              (ranking_of o.Trex.strategy.Strategy.answers))
          (Queries.for_collection Queries.Ieee)
      in
      Printf.printf "  %-8s MAP = %.3f\n" name (Metrics.mean (fun x -> x) scores))
    [ ("BM25", engine_for Queries.Ieee); ("TF-IDF", tfidf) ]

(* ---- main ---- *)

let () =
  Printf.printf "TReX benchmark harness%s\n" (if !quick then " (quick mode)" else "");
  ignore (Lazy.force engines);
  if want "sizes" then section_sizes ();
  if want "table1" then section_table1 ();
  if want "fig4" || want "fig5" || want "fig6" then materialize_all ();
  if want "fig4" then
    section_figure ~section:"fig4" "FIGURE 4" [ "202"; "203" ]
      "202: Merge<<TA~ERA, ITA<<TA; 203: TA<<ERA, small-k TA~Merge";
  if want "fig5" then
    section_figure ~section:"fig5" "FIGURE 5" [ "260"; "270" ]
      "260: TA best only tiny k; 270: k drastically affects TA";
  if want "fig6" then
    section_figure ~section:"fig6" "FIGURE 6" [ "233"; "290"; "292" ]
      "233/292: TA & Merge << ERA; 290: Merge usually wins";
  if want "selfman" then section_selfman ();
  if want "ablation" then section_ablation ();
  if want "effectiveness" then section_effectiveness ();
  if want "io" then section_io ();
  if want "compression" then section_compression ();
  if want "ingest" then section_ingest ();
  if want "shard" then section_shard ();
  if want "shard_proc" then section_shard_proc ();
  if want "telemetry" then section_telemetry ();
  if want "serve" then section_serve ();
  Printf.printf "\ndone.\n"
