(* Sharded scatter-gather suite.

   The contract under test (DESIGN.md §6): a sharded coordinator is
   rank-identical to the single-environment engine when healthy; a
   lost, tripped, slow or quarantined shard degrades the answer to a
   tagged sound partial (never wrong answers, never an escaped
   exception); and split/merge rebalances are crash-atomic — at every
   crash point a document is in exactly its pre- or post-rebalance
   shard.

   TREX_SOAK_SEEDS widens the seeded shard-fault soak (CI runs 8). *)

module Pager = Trex_storage.Pager
module Env = Trex_storage.Env
module Breaker = Trex_resilience.Breaker
module Retry = Trex_resilience.Retry
module Metrics = Trex_obs.Metrics
module Journal = Trex_obs.Journal
module Shard = Trex_shard.Shard
module Strategy = Trex_topk.Strategy
module Answer = Trex_topk.Answer
module Index = Trex_invindex.Index
module Types = Trex_invindex.Types
module Translate = Trex_nexi.Translate
module Workload = Trex_selfman.Workload
module Queries = Trex_corpus.Queries

let check = Alcotest.check
let metric name = Metrics.value (Metrics.counter name)

let temp_dir () =
  let dir = Filename.temp_file "trex_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec cp_r src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
      Unix.mkdir dst 0o755;
      Array.iter
        (fun e -> cp_r (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | _ ->
      let ic = open_in_bin src in
      let n = in_channel_length ic in
      let bytes = really_input_string ic n in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc bytes;
      close_out oc

let with_no_sleep_policy f =
  let saved = Pager.retry_policy () in
  Pager.set_retry_policy (Retry.no_sleep saved);
  Fun.protect ~finally:(fun () -> Pager.set_retry_policy saved) f

let nexi = "//article//sec[about(., information retrieval)]"

let table1 =
  List.map (fun (q : Queries.t) -> q.nexi) (Queries.for_collection Queries.Ieee)

(* One corpus, one single-env baseline engine (in memory), shared doc
   list for building coordinators. *)
let corpus ~docs:doc_count ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count ~seed () in
  let docs = List.of_seq (coll.docs ()) in
  let env = Env.in_memory () in
  let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
  (coll, docs, engine)

let baseline engine ?method_ ~k q = (Trex.query engine ~k ?method_ q).Trex.strategy.Strategy.answers

(* Rank identity is over (docid, endpos, length, score): a shard's
   summary numbers its sids locally, so sid labels differ from the
   single-env summary even when the ranked elements are identical. *)
let answers_testable =
  let entry_sig (e : Answer.entry) =
    (e.element.Types.docid, e.element.Types.endpos, e.element.Types.length)
  in
  let equal a b =
    List.compare_lengths a b = 0
    && List.for_all2
         (fun (x : Answer.entry) (y : Answer.entry) ->
           entry_sig x = entry_sig y
           && Float.abs (x.Answer.score -. y.Answer.score) <= 1e-9)
         a b
  in
  Alcotest.testable Answer.pp equal

(* The shard map must tile the docid space: bases ascending, no gap,
   no overlap. *)
let check_contiguous t ~total =
  let last =
    List.fold_left
      (fun expect (i : Shard.shard_info) ->
        check Alcotest.int ("base of " ^ i.name) expect i.base;
        expect + i.docs)
      0 (Shard.shards t)
  in
  check Alcotest.int "shards cover every document" total last

(* ---- rank identity across shard counts (1/2/8) ---- *)

let test_rank_identity () =
  let coll, docs, engine = corpus ~docs:24 ~seed:42 in
  List.iter
    (fun n ->
      let dir = temp_dir () in
      let t = Shard.create ~dir ~shards:n ~alias:coll.alias docs in
      check_contiguous t ~total:24;
      List.iter
        (fun q ->
          let sharded = Shard.query t ~k:10 q in
          Alcotest.(check bool)
            (Printf.sprintf "%d shards never degraded" n)
            false sharded.Shard.degraded;
          check answers_testable
            (Printf.sprintf "%d shards rank-identical: %s" n q)
            (baseline engine ~k:10 q) sharded.Shard.answers)
        table1;
      Shard.close t;
      rm_rf dir)
    [ 1; 2; 8 ]

let test_rank_identity_ta () =
  (* Same identity through the materialized-list path: RPL scores are
     baked at build time, so this also proves the corpus-wide scoring
     overrides reach the RPL builder. *)
  let coll, docs, engine = corpus ~docs:20 ~seed:7 in
  ignore (Trex.materialize engine nexi);
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:4 ~alias:coll.alias docs in
  Shard.materialize t nexi;
  List.iter
    (fun m ->
      let sharded = Shard.query t ~k:5 ~method_:m nexi in
      Alcotest.(check bool) "not degraded" false sharded.Shard.degraded;
      check answers_testable
        ("rank-identical via " ^ Strategy.method_to_string m)
        (baseline engine ~method_:m ~k:5 nexi)
        sharded.Shard.answers)
    [ Strategy.Ta_method; Strategy.Merge_method; Strategy.Era_method ];
  Shard.close t;
  rm_rf dir

(* ---- global-threshold early termination ---- *)

let test_floor_early_termination () =
  let coll, docs, _engine = corpus ~docs:32 ~seed:11 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:4 ~alias:coll.alias docs in
  Shard.materialize t nexi;
  let e0 = metric "shard.early_terminations" in
  let r = Shard.query t ~k:3 ~method_:Strategy.Ta_method nexi in
  Alcotest.(check bool) "not degraded" false r.Shard.degraded;
  Alcotest.(check bool) "floor-assisted shard visits counted" true
    (metric "shard.early_terminations" - e0 > 0);
  (* Re-run every floored shard in isolation with no floor: the
     coordinator's floor must never cost entries, and must save some
     across the scatter. *)
  let floored =
    List.filter (fun (s : Shard.shard_report) -> s.r_floor > 0.0) r.Shard.reports
  in
  Alcotest.(check bool) "later shards saw a floor" true (floored <> []);
  let with_floor = ref 0 and without_floor = ref 0 in
  List.iter
    (fun (s : Shard.shard_report) ->
      let index =
        match Shard.index_of t s.r_shard with
        | Some i -> i
        | None -> Alcotest.fail "shard not attached"
      in
      let translation =
        Translate.translate ~summary:(Index.summary index)
          ~normalize:(Index.normalize_term index)
          (Trex_nexi.Parser.parse nexi)
      in
      let alone =
        Strategy.evaluate index ~scoring:Trex_scoring.Scorer.default
          ~sids:(Translate.all_sids translation)
          ~terms:(Translate.all_terms translation)
          ~k:3 Strategy.Ta_method
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: floor never reads more (%d with vs %d without)"
           s.r_shard s.r_entries_read alone.Strategy.entries_read)
        true
        (s.r_entries_read <= alone.Strategy.entries_read);
      with_floor := !with_floor + s.r_entries_read;
      without_floor := !without_floor + alone.Strategy.entries_read)
    floored;
  Alcotest.(check bool)
    (Printf.sprintf "the floor saves reads overall (%d with vs %d without)"
       !with_floor !without_floor)
    true
    (!with_floor < !without_floor);
  Shard.close t;
  rm_rf dir

(* ---- shard loss mid-query ---- *)

(* The sound partial a query missing some shards must return: the
   single-env ranking restricted to the documents of the surviving
   shards. *)
let surviving_baseline engine t ~lost ~k q =
  let full = baseline engine ~k:1_000_000 q in
  let ranges =
    List.filter_map
      (fun (i : Shard.shard_info) ->
        if List.mem i.name lost then Some (i.base, i.base + i.docs) else None)
      (Shard.shards t)
  in
  let kept =
    List.filter
      (fun (e : Answer.entry) ->
        not
          (List.exists
             (fun (lo, hi) ->
               e.element.Types.docid >= lo && e.element.Types.docid < hi)
             ranges))
      full
  in
  Answer.top_k kept k

let test_shard_loss_mid_query () =
  let coll, docs, engine = corpus ~docs:20 ~seed:3 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:4 ~alias:coll.alias docs in
  Shard.set_shard_hook t
    (Some (fun name -> if name = "shard-001" then failwith "injected shard loss"));
  let d0 = metric "shard.degraded_queries" in
  let r = Shard.query t ~k:5 nexi in
  Alcotest.(check bool) "tagged degraded" true r.Shard.degraded;
  Alcotest.(check bool) "the lost shard is named" true
    (List.mem_assoc "shard-001" r.Shard.degraded_shards);
  check Alcotest.int "degraded query counted" 1
    (metric "shard.degraded_queries" - d0);
  check answers_testable "answers = exact ranking of the surviving shards"
    (surviving_baseline engine t ~lost:[ "shard-001" ] ~k:5 nexi)
    r.Shard.answers;
  (* Repeated losses trip the shard's breaker; the coordinator then
     skips it without even attempting evaluation. *)
  let b = Shard.breaker t "shard-001" in
  while Breaker.state b <> Breaker.Open do
    ignore (Shard.query t ~k:5 nexi)
  done;
  Shard.set_shard_hook t None;
  let r2 = Shard.query t ~k:5 nexi in
  Alcotest.(check bool) "still degraded while open" true r2.Shard.degraded;
  (match List.assoc_opt "shard-001" r2.Shard.degraded_shards with
  | Some reason ->
      Alcotest.(check bool) "skipped by the breaker" true
        (String.length reason >= 7 && String.sub reason 0 7 = "circuit")
  | None -> Alcotest.fail "breaker skip must be tagged");
  check answers_testable "breaker-skip partial still sound"
    (surviving_baseline engine t ~lost:[ "shard-001" ] ~k:5 nexi)
    r2.Shard.answers;
  (* After cooldown the next query is the probe; its success closes
     the breaker and restores the full ranking. *)
  Breaker.set_cooldown b 0.0;
  let r3 = Shard.query t ~k:5 nexi in
  Alcotest.(check bool) "probe run recovers" false r3.Shard.degraded;
  Alcotest.(check bool) "breaker closed again" true (Breaker.state b = Breaker.Closed);
  check answers_testable "full ranking restored" (baseline engine ~k:5 nexi)
    r3.Shard.answers;
  Shard.close t;
  rm_rf dir

let test_deadline_skips_shards () =
  let coll, docs, _engine = corpus ~docs:12 ~seed:9 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:3 ~alias:coll.alias docs in
  let s0 = metric "shard.shards_skipped" in
  let r = Shard.query t ~k:5 ~deadline_ms:0.0 nexi in
  Alcotest.(check bool) "tagged degraded" true r.Shard.degraded;
  check Alcotest.int "every shard skipped and tagged" 3
    (List.length r.Shard.degraded_shards);
  check Alcotest.int "skips counted" 3 (metric "shard.shards_skipped" - s0);
  check Alcotest.int "no answers fabricated" 0 (List.length r.Shard.answers);
  Shard.close t;
  rm_rf dir

(* ---- the scatter core, driven by a stub dispatch ---- *)

(* A shard skipped at dispatch takes no share of its wave's page
   budget; replies are rebased to global docids; a later wave gets what
   the earlier ones left. *)
let test_core_page_slicing () =
  let target name base =
    {
      Shard.shard = { Shard.name; base; docs = 10 };
      breaker = Breaker.create ("test." ^ name);
      unavailable = (fun () -> None);
    }
  in
  let targets = [ target "a" 0; target "b" 10; target "c" 20; target "d" 30 ] in
  Breaker.trip (List.nth targets 1).Shard.breaker ~reason:"test";
  let calls = ref [] in
  let dispatch _ast (slice : Shard.slice) (shards : Shard.shard_info list) =
    calls := (List.map (fun i -> i.Shard.name) shards, slice.Shard.page_budget) :: !calls;
    List.map
      (fun _ ->
        Shard.Reply
          {
            Shard.local_answers =
              [
                {
                  Answer.element = { Types.sid = 1; docid = 0; endpos = 5; length = 5 };
                  score = 1.0;
                };
              ];
            partial = false;
            method_used = Some Strategy.Era_method;
            entries_read = 1;
            elapsed_s = 0.0;
            pages_used = 20;
          })
      shards
  in
  let r = Shard.scatter ~k:10 ~wave:3 ~page_budget:90 ~dispatch targets nexi in
  Alcotest.(check (list (pair (list string) (option int))))
    "the open breaker's shard takes no share; the next wave gets the rest"
    [ ([ "a"; "c" ], Some 45); ([ "d" ], Some 50) ]
    (List.rev !calls);
  Alcotest.(check (list (pair string string)))
    "the skip is tagged" [ ("b", "circuit open (cooling down)") ] r.Shard.degraded_shards;
  Alcotest.(check (list int)) "replies rebased to global docids" [ 0; 20; 30 ]
    (List.sort compare
       (List.map (fun (e : Answer.entry) -> e.Answer.element.Types.docid) r.Shard.answers))

(* ---- rebalance: split / merge preserve the ranking ---- *)

let test_rebalance_preserves_ranking () =
  let coll, docs, engine = corpus ~docs:16 ~seed:21 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:4 ~alias:coll.alias docs in
  let expect = baseline engine ~k:8 nexi in
  let r0 = metric "shard.rebalances" in
  let a, b = Shard.split t "shard-001" in
  check_contiguous t ~total:16;
  check answers_testable "ranking survives a split" expect
    (Shard.query t ~k:8 nexi).Shard.answers;
  let merged = Shard.merge t a.Shard.name b.Shard.name in
  check_contiguous t ~total:16;
  check answers_testable "ranking survives the merge back" expect
    (Shard.query t ~k:8 nexi).Shard.answers;
  (* Merging across an original shard boundary exercises summary
     growth over the second source's documents. *)
  ignore (Shard.merge t "shard-000" merged.Shard.name);
  check_contiguous t ~total:16;
  check answers_testable "ranking survives a cross-boundary merge" expect
    (Shard.query t ~k:8 nexi).Shard.answers;
  check Alcotest.int "rebalances counted" 3 (metric "shard.rebalances" - r0);
  (* The coordinator survives close/reopen with the post-rebalance map. *)
  Shard.close t;
  let t2 = Shard.open_ dir in
  check_contiguous t2 ~total:16;
  check
    (Alcotest.list Alcotest.string)
    "nothing unresolved" [] (Shard.unresolved t2);
  check answers_testable "reopened coordinator identical" expect
    (Shard.query t2 ~k:8 nexi).Shard.answers;
  Shard.close t2;
  rm_rf dir

(* ---- rebalance crash matrix ---- *)

let test_rebalance_crash_matrix () =
  let coll, docs, engine = corpus ~docs:12 ~seed:5 in
  let expect = baseline engine ~k:50 nexi in
  let template = temp_dir () in
  let t = Shard.create ~dir:template ~shards:3 ~alias:coll.alias docs in
  Shard.close t;
  (* Dry run to enumerate the hook points of this split. *)
  let dry = temp_dir () in
  rm_rf dry;
  cp_r template dry;
  let t = Shard.open_ dry in
  let points = ref [] in
  Shard.set_op_hook t (Some (fun p -> points := p :: !points));
  ignore (Shard.split t "shard-001");
  Shard.close t;
  rm_rf dry;
  let points = List.rev !points in
  Alcotest.(check bool) "matrix has hook points" true (List.length points >= 5);
  let pre = [ "shard-000"; "shard-001"; "shard-002" ] in
  let post = [ "shard-000"; "shard-002"; "shard-003"; "shard-004" ] in
  List.iteri
    (fun n point ->
      let dir = temp_dir () in
      rm_rf dir;
      cp_r template dir;
      let t = Shard.open_ dir in
      let fired = ref 0 in
      Shard.set_op_hook t
        (Some
           (fun _ ->
             incr fired;
             if !fired = n + 1 then
               raise (Pager.Injected_crash ("crash matrix: " ^ point))));
      (match Shard.split t "shard-001" with
      | _ -> Alcotest.failf "point %s: expected the injected crash" point
      | exception Pager.Injected_crash _ -> ());
      Shard.abort t;
      let t2 = Shard.open_ dir in
      check
        (Alcotest.list Alcotest.string)
        (point ^ ": recovery resolves the op")
        [] (Shard.unresolved t2);
      let names =
        List.sort String.compare
          (List.map (fun (i : Shard.shard_info) -> i.Shard.name) (Shard.shards t2))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: placement is exactly pre or post (%s)" point
           (String.concat "," names))
        true
        (names = pre || names = post);
      check_contiguous t2 ~total:12;
      (* Full-depth rank identity proves every document is served from
         exactly one shard with its correct global docid. *)
      let r = Shard.query t2 ~k:50 nexi in
      Alcotest.(check bool) (point ^ ": recovered query not degraded") false
        r.Shard.degraded;
      check answers_testable (point ^ ": recovered ranking exact") expect
        r.Shard.answers;
      Shard.close t2;
      rm_rf dir)
    points;
  rm_rf template

let test_unresolvable_rebalance_quarantines () =
  let coll, docs, engine = corpus ~docs:12 ~seed:13 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:3 ~alias:coll.alias docs in
  Shard.set_op_hook t
    (Some
       (fun p ->
         if p = "rebalance:committed" then
           raise (Pager.Injected_crash "crash after commit")));
  (match Shard.split t "shard-001" with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Pager.Injected_crash _ -> ());
  Shard.abort t;
  (* The op committed, but one of its half-built shards is destroyed
     before recovery runs: roll-forward is impossible. *)
  rm_rf (Filename.concat dir "shard-004");
  let t2 = Shard.open_ dir in
  Alcotest.(check bool) "op reported unresolved" true (Shard.unresolved t2 <> []);
  Alcotest.(check bool) "source shard quarantined" true
    (List.mem_assoc "shard-001" (Shard.blocked t2));
  let quarantined =
    List.filter (fun (h : Shard.health) -> not h.Shard.h_attached) (Shard.health t2)
  in
  check
    (Alcotest.list Alcotest.string)
    "health shows exactly the quarantined shard" [ "shard-001" ]
    (List.map (fun (h : Shard.health) -> h.Shard.h_shard) quarantined);
  let r = Shard.query t2 ~k:5 nexi in
  Alcotest.(check bool) "queries degrade" true r.Shard.degraded;
  Alcotest.(check bool) "the quarantined shard is named" true
    (List.mem_assoc "shard-001" r.Shard.degraded_shards);
  check answers_testable "partial is the exact surviving ranking"
    (surviving_baseline engine t2 ~lost:[ "shard-001" ] ~k:5 nexi)
    r.Shard.answers;
  Shard.close t2;
  rm_rf dir

(* ---- observed workload attribution ---- *)

let test_workload_by_shard () =
  let coll, docs, _engine = corpus ~docs:8 ~seed:17 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:2 ~alias:coll.alias docs in
  Journal.set_enabled true;
  Fun.protect ~finally:(fun () -> Journal.set_enabled false) @@ fun () ->
  ignore (Shard.query t ~k:5 nexi);
  ignore (Shard.query t ~k:5 nexi);
  let records =
    List.concat_map
      (fun (i : Shard.shard_info) ->
        match Shard.index_of t i.Shard.name with
        | Some index -> Journal.records (Env.journal (Index.env index))
        | None -> [])
      (Shard.shards t)
  in
  let groups = Workload.by_shard records in
  check
    (Alcotest.list Alcotest.string)
    "one observed workload per shard" [ "shard-000"; "shard-001" ]
    (List.sort String.compare (List.map fst groups));
  List.iter
    (fun (_, w) ->
      match Workload.queries w with
      | [ q ] ->
          check (Alcotest.float 1e-9) "single query at full frequency" 1.0
            q.Workload.frequency;
          check Alcotest.int "k preserved" 5 q.Workload.k
      | qs -> Alcotest.failf "expected one grouped query, got %d" (List.length qs))
    groups;
  Shard.close t;
  rm_rf dir

(* ---- seeded shard-fault soak ---- *)

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 3

let soak_queries = [ nexi; "//article//p[about(., database systems)]" ]

(* One soak round: a disk-backed coordinator under a deterministic
   fault schedule — transient I/O streaks on every shard table, one
   shard lost outright on some seeds, and budget pressure — must
   answer every query either exactly or as a tagged sound partial.
   Exceptions never escape the coordinator. *)
let run_soak_seed seed =
  with_no_sleep_policy @@ fun () ->
  let coll, docs, engine = corpus ~docs:12 ~seed:(2000 + seed) in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:3 ~alias:coll.alias docs in
  (* Exact full answer sets for soundness checks. *)
  let exact_scores =
    List.map
      (fun q ->
        ( q,
          List.map
            (fun (e : Answer.entry) ->
              ((e.element.Types.docid, e.element.Types.endpos), e.score))
            (baseline engine ~k:1_000_000 q) ))
      soak_queries
  in
  (* Arm a deterministic transient-read schedule on every table of
     every shard; even seeds stay under the retry budget (recoverable),
     odd seeds exceed it (exhaustions → shard tagged). *)
  let streak = if seed mod 2 = 0 then 2 else 8 in
  List.iteri
    (fun si (i : Shard.shard_info) ->
      match Shard.index_of t i.Shard.name with
      | None -> ()
      | Some index ->
          let env = Index.env index in
          List.iteri
            (fun ti name ->
              ignore
                (Pager.create_faulty
                   ~faults:
                     [
                       Pager.Transient_read
                         {
                           seed = (seed * 131) + (si * 17) + ti;
                           fail_one_in = 30;
                           fail_streak = streak;
                         };
                     ]
                   (Trex_storage.Bptree.pager (Env.table env name))))
            (List.sort String.compare (Env.table_names env)))
    (Shard.shards t);
  (* Some seeds also lose a whole shard mid-query. *)
  let lost = if seed mod 3 = 0 then [ "shard-001" ] else [] in
  Shard.set_shard_hook t
    (Some
       (fun name ->
         if List.mem name lost then failwith "soak: injected shard loss"));
  let exact_runs = ref 0 and degraded_runs = ref 0 in
  List.iter
    (fun q ->
      let scores = List.assoc q exact_scores in
      List.iter
        (fun deadline_ms ->
          match Shard.query t ~k:5 ?deadline_ms q with
          | r ->
              if r.Shard.degraded then begin
                incr degraded_runs;
                (* Sound partial: every answer is a real element with a
                   never-overstated score. *)
                List.iter
                  (fun (e : Answer.entry) ->
                    let id = (e.element.Types.docid, e.element.Types.endpos) in
                    match List.assoc_opt id scores with
                    | None ->
                        Alcotest.failf "seed %d: degraded run fabricated %d/%d"
                          seed (fst id) (snd id)
                    | Some exact ->
                        Alcotest.(check bool) "score is a lower bound" true
                          (e.Answer.score <= exact +. 1e-9))
                  r.Shard.answers
              end
              else begin
                incr exact_runs;
                check answers_testable
                  (Printf.sprintf "seed %d: untagged answers exact" seed)
                  (baseline engine ~k:5 q) r.Shard.answers
              end
          | exception e ->
              Alcotest.failf "seed %d: escaped the coordinator: %s" seed
                (Printexc.to_string e))
        [ None; Some 0.0 ])
    soak_queries;
  Shard.close t;
  rm_rf dir;
  Printf.printf "shard soak seed %d: %d exact, %d degraded\n%!" seed !exact_runs
    !degraded_runs;
  (!exact_runs, !degraded_runs)

let test_soak () =
  let seeds = soak_seeds () in
  let exact = ref 0 and degraded = ref 0 in
  for seed = 1 to seeds do
    let e, d = run_soak_seed seed in
    exact := !exact + e;
    degraded := !degraded + d
  done;
  Alcotest.(check bool) "some runs exact" true (!exact > 0);
  Alcotest.(check bool) "the soak reached the degraded bucket" true (!degraded > 0)

let () =
  Alcotest.run "trex_shard"
    [
      ( "identity",
        [
          Alcotest.test_case "rank-identical at 1/2/8 shards" `Quick
            test_rank_identity;
          Alcotest.test_case "rank-identical via TA/Merge/ERA" `Quick
            test_rank_identity_ta;
        ] );
      ( "early-termination",
        [
          Alcotest.test_case "global threshold cuts shard reads" `Quick
            test_floor_early_termination;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "shard loss yields tagged sound partial" `Quick
            test_shard_loss_mid_query;
          Alcotest.test_case "deadline skips shards soundly" `Quick
            test_deadline_skips_shards;
        ] );
      ( "core",
        [
          Alcotest.test_case "page slices go to dispatched shards only" `Quick
            test_core_page_slicing;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "split/merge preserve the ranking" `Quick
            test_rebalance_preserves_ranking;
          Alcotest.test_case "crash matrix: pre or post, never between" `Quick
            test_rebalance_crash_matrix;
          Alcotest.test_case "unresolvable op quarantines" `Quick
            test_unresolvable_rebalance_quarantines;
        ] );
      ( "selfman",
        [
          Alcotest.test_case "journal attributes traffic per shard" `Quick
            test_workload_by_shard;
        ] );
      ("soak", [ Alcotest.test_case "seeded shard-fault soak" `Slow test_soak ]);
    ]
