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
module Metrics = Trex_obs.Metrics
module Journal = Trex_obs.Journal
module Shard = Trex_shard.Shard
module Strategy = Trex_topk.Strategy
module Answer = Trex_topk.Answer
module Index = Trex_invindex.Index
module Types = Trex_invindex.Types
module Translate = Trex_nexi.Translate
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

let shard_names t =
  List.sort String.compare (List.map (fun (i : Shard.shard_info) -> i.Shard.name) (Shard.shards t))

(* The [shard-*] subdirectories on disk. *)
let shard_dirs dir =
  List.sort String.compare
    (List.filter
       (fun e -> String.starts_with ~prefix:"shard-" e)
       (Array.to_list (Sys.readdir dir)))

(* The plain-env plan is Trex.query on the same engine: bit-identical
   answers, the same method and entries read, undegraded, and with
   journaling on exactly one record in the env's journal, labelled with
   the NEXI text. *)
let check_plain_env engine ?method_ ~k q =
  let direct = (Trex.query engine ~k ?method_ q).Trex.strategy in
  let journal = Env.journal (Index.env (Trex.index engine)) in
  let before = Journal.length journal in
  Journal.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Journal.set_enabled false)
      (fun () -> Shard.query_env engine ~k ?method_ q)
  in
  Alcotest.(check bool) ("plain env never degraded: " ^ q) false r.Shard.degraded;
  Alcotest.(check bool)
    ("plain env bit-identical to Trex.query: " ^ q)
    true
    (r.Shard.answers = direct.Strategy.answers);
  (match r.Shard.reports with
  | [ rep ] ->
      Alcotest.(check (option string))
        "plain env: Trex.query's method"
        (Some (Strategy.method_to_string direct.Strategy.method_used))
        (Option.map Strategy.method_to_string rep.Shard.r_method);
      check Alcotest.int "plain env: Trex.query's entries read"
        direct.Strategy.entries_read rep.Shard.r_entries_read
  | reps -> Alcotest.failf "plain env: %d reports, expected one" (List.length reps));
  check Alcotest.int "plain env: one journal record" (before + 1) (Journal.length journal);
  check Alcotest.string "plain env: record labelled with the NEXI" q
    (List.nth (Journal.records journal) before).Journal.label

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
    [ 1; 2; 8 ];
  List.iter (check_plain_env engine ~k:10) table1

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
        sharded.Shard.answers;
      check_plain_env engine ~method_:m ~k:5 nexi)
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
            fallbacks = [];
          })
      shards
  in
  let r =
    Shard.scatter ~k:10 ~wave:3 ~page_budget:90 ~span:"test.scatter"
      ~journal:Journal.in_memory ~dispatch targets nexi
  in
  Alcotest.(check (list (pair (list string) (option int))))
    "the open breaker's shard takes no share; the next wave gets the rest"
    [ ([ "a"; "c" ], Some 45); ([ "d" ], Some 50) ]
    (List.rev !calls);
  Alcotest.(check (list (pair string string)))
    "the skip is tagged" [ ("b", "circuit open (cooling down)") ] r.Shard.degraded_shards;
  Alcotest.(check (list int)) "replies rebased to global docids" [ 0; 20; 30 ]
    (List.sort compare
       (List.map (fun (e : Answer.entry) -> e.Answer.element.Types.docid) r.Shard.answers))

(* A k below 1 has no top k to merge into: the scatter refuses it
   before any shard is dispatched. *)
let test_scatter_refuses_nonpositive_k () =
  let target =
    {
      Shard.shard = { Shard.name = "a"; base = 0; docs = 10 };
      breaker = Breaker.create "test.k0";
      unavailable = (fun () -> None);
    }
  in
  let dispatched = ref false in
  let dispatch _ _ shards =
    dispatched := true;
    List.map (fun _ -> Shard.Lost "unreachable") shards
  in
  Alcotest.check_raises "k = 0 refused" (Invalid_argument "k must be positive")
    (fun () ->
      ignore
        (Shard.scatter ~k:0 ~wave:1 ~span:"test.scatter" ~journal:Journal.in_memory
           ~dispatch [ target ] nexi));
  Alcotest.(check bool) "nothing dispatched" false !dispatched

(* ---- rebalance: split / merge preserve the ranking ---- *)

let test_rebalance_preserves_ranking () =
  let coll, docs, engine = corpus ~docs:16 ~seed:21 in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:4 ~alias:coll.alias docs in
  let expect = baseline engine ~k:8 nexi in
  (* A build that fails in process leaves the old map serving, with no
     half-built directory behind. *)
  Shard.set_op_hook t
    (Some (fun p -> if p = "rebalance:built:shard-004" then failwith "injected build failure"));
  (match Shard.split t "shard-001" with
  | _ -> Alcotest.fail "expected the injected build failure"
  | exception Failure _ -> ());
  Shard.set_op_hook t None;
  check (Alcotest.list Alcotest.string) "a failed split keeps the old map" (shard_names t)
    (shard_dirs dir);
  let r = Shard.query t ~k:8 nexi in
  Alcotest.(check bool) "the old map still serves every shard" false r.Shard.degraded;
  check answers_testable "ranking survives a failed split" expect r.Shard.answers;
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
    "only the mapped shard directories remain" (shard_names t2) (shard_dirs dir);
  check answers_testable "reopened coordinator identical" expect
    (Shard.query t2 ~k:8 nexi).Shard.answers;
  Shard.close t2;
  rm_rf dir

(* ---- rebalance crash matrix ---- *)

(* Every sequence point a rebalance passes, in order: the shard's own
   ([Shard.set_op_hook]) and those of the coordinator environment's map
   commit ([Env.set_op_hook]), as one numbered stream. *)
let with_point_stream t hook f =
  Shard.set_op_hook t (Some hook);
  Env.set_op_hook (Some hook);
  Fun.protect ~finally:(fun () -> Env.set_op_hook None) f

(* Crash a copy of [template] at every point [rebalance] passes; each
   recovered coordinator must hold exactly the [pre] or the [post]
   placement, serve every document from one shard, and keep no
   directory its map does not name. *)
let crash_matrix ~template ~expect ~total ~pre ~post rebalance =
  let copy () =
    let dir = temp_dir () in
    rm_rf dir;
    cp_r template dir;
    dir
  in
  let dry = copy () in
  let t = Shard.open_ dry in
  let points = ref [] in
  with_point_stream t (fun p -> points := p :: !points) (fun () -> rebalance t);
  Shard.close t;
  rm_rf dry;
  let points = List.rev !points in
  Alcotest.(check bool) "matrix has hook points" true (List.length points >= 5);
  Alcotest.(check bool) "the map commit's env points are in the stream" true
    (List.exists (String.starts_with ~prefix:"op:") points
     && List.exists (String.starts_with ~prefix:"checkpoint:") points);
  let landed_post =
    List.mapi
      (fun n point ->
        let dir = copy () in
        let t = Shard.open_ dir in
        let fired = ref 0 in
        let crash _ =
          incr fired;
          if !fired = n + 1 then raise (Pager.Injected_crash ("crash matrix: " ^ point))
        in
        (match with_point_stream t crash (fun () -> rebalance t) with
        | () -> Alcotest.failf "point %s: expected the injected crash" point
        | exception Pager.Injected_crash _ -> ());
        Shard.abort t;
        let t2 = Shard.open_ dir in
        let names = shard_names t2 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: placement is exactly pre or post (%s)" point
             (String.concat "," names))
          true
          (names = pre || names = post);
        check (Alcotest.list Alcotest.string) (point ^ ": leftovers swept") names
          (shard_dirs dir);
        check_contiguous t2 ~total;
        (* Full-depth rank identity proves every document is served from
           exactly one shard with its correct global docid. *)
        let r = Shard.query t2 ~k:50 nexi in
        Alcotest.(check bool) (point ^ ": recovered query not degraded") false
          r.Shard.degraded;
        check answers_testable (point ^ ": recovered ranking exact") expect
          r.Shard.answers;
        Shard.close t2;
        rm_rf dir;
        names = post)
      points
  in
  (* The map commit is the one durability point: every crash before it
     lands pre, every crash after it post. *)
  check (Alcotest.list Alcotest.bool) "pre until the commit, post from then on"
    (List.sort compare landed_post) landed_post;
  Alcotest.(check bool) "both placements are reached" true
    (List.mem false landed_post && List.mem true landed_post)

let test_rebalance_crash_matrix () =
  let coll, docs, engine = corpus ~docs:12 ~seed:5 in
  let expect = baseline engine ~k:50 nexi in
  let template = temp_dir () in
  Shard.close (Shard.create ~dir:template ~shards:3 ~alias:coll.alias docs);
  let pre = [ "shard-000"; "shard-001"; "shard-002" ] in
  crash_matrix ~template ~expect ~total:12 ~pre
    ~post:[ "shard-000"; "shard-002"; "shard-003"; "shard-004" ]
    (fun t -> ignore (Shard.split t "shard-001"));
  crash_matrix ~template ~expect ~total:12 ~pre ~post:[ "shard-002"; "shard-003" ]
    (fun t -> ignore (Shard.merge t "shard-000" "shard-001"));
  rm_rf template

(* A crash at any point of [create]'s map commit leaves a directory that
   is refused as no coordinator (before the commit) or one that opens
   whole (after it) — never one that fails to open. *)
let test_create_crash () =
  let coll, docs, engine = corpus ~docs:6 ~seed:23 in
  let expect = baseline engine ~k:50 nexi in
  let create dir = Shard.close (Shard.create ~dir ~shards:2 ~alias:coll.alias docs) in
  let points = ref [] in
  let dry = temp_dir () in
  Env.set_op_hook (Some (fun p -> points := p :: !points));
  Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () -> create dry);
  rm_rf dry;
  let points = List.rev !points in
  Alcotest.(check bool) "create passes env points" true (points <> []);
  let opened =
    List.mapi
      (fun n point ->
        let dir = temp_dir () in
        let fired = ref 0 in
        Env.set_op_hook
          (Some
             (fun _ ->
               incr fired;
               if !fired = n + 1 then raise (Pager.Injected_crash ("create: " ^ point))));
        (match Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () -> create dir) with
        | () -> Alcotest.failf "%s: expected the injected crash" point
        | exception Pager.Injected_crash _ -> ());
        let opened =
          match Shard.open_ dir with
          | t ->
              check_contiguous t ~total:6;
              check answers_testable (point ^ ": a committed create serves whole") expect
                (Shard.query t ~k:50 nexi).Shard.answers;
              Shard.close t;
              true
          | exception Shard.Not_a_coordinator _ -> false
        in
        rm_rf dir;
        opened)
      points
  in
  Alcotest.(check bool) "both outcomes are reached" true
    (List.mem true opened && List.mem false opened)

(* The map is committed, then one of the new directories is destroyed
   before recovery runs: the missing shard is blocked and tagged, and
   nothing is swept — the source stays on disk. *)
let test_missing_mapped_shard_quarantines () =
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
  rm_rf (Filename.concat dir "shard-004");
  let t2 = Shard.open_ dir in
  check (Alcotest.list Alcotest.string) "the committed map is read"
    [ "shard-000"; "shard-002"; "shard-003"; "shard-004" ] (shard_names t2);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "the missing shard is blocked"
    [ ("shard-004", Printexc.to_string (Failure "shard directory missing")) ]
    (Shard.blocked t2);
  let quarantined =
    List.filter (fun (h : Shard.health) -> not h.Shard.h_attached) (Shard.health t2)
  in
  check
    (Alcotest.list Alcotest.string)
    "health shows exactly the missing shard" [ "shard-004" ]
    (List.map (fun (h : Shard.health) -> h.Shard.h_shard) quarantined);
  Alcotest.(check bool) "the source directory is still on disk" true
    (Sys.file_exists (Filename.concat dir "shard-001"));
  let r = Shard.query t2 ~k:5 nexi in
  Alcotest.(check bool) "queries degrade" true r.Shard.degraded;
  Alcotest.(check bool) "the missing shard is named" true
    (List.mem_assoc "shard-004" r.Shard.degraded_shards);
  check answers_testable "partial is the exact surviving ranking"
    (surviving_baseline engine t2 ~lost:[ "shard-004" ] ~k:5 nexi)
    r.Shard.answers;
  Shard.close t2;
  rm_rf dir

(* The map op's commit is durable but the process dies before the op
   is checkpointed, and the replay of that op then fails at the next
   open: no map can be trusted, so every read of it raises
   [Map_unresolved] and no directory is removed — the sources and the
   new shards stay on disk. Once the replay succeeds, the new map is
   read, the sources go, and the ranking is whole. *)
let test_unreplayed_map_removes_nothing () =
  let coll, docs, engine = corpus ~docs:12 ~seed:29 in
  let expect = baseline engine ~k:50 nexi in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:3 ~alias:coll.alias docs in
  Env.set_op_hook
    (Some
       (fun p ->
         if p = "op:shard_split:committed" then
           raise (Pager.Injected_crash "crash after the map commit")));
  (match
     Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () ->
         Shard.split t "shard-001")
   with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Pager.Injected_crash _ -> ());
  Shard.abort t;
  let before = shard_dirs dir in
  check (Alcotest.list Alcotest.string) "sources and new shards on disk"
    [ "shard-000"; "shard-001"; "shard-002"; "shard-003"; "shard-004" ] before;
  Env.set_op_hook
    (Some
       (fun p ->
         if p = "checkpoint:flushed:shardmap" then failwith "injected replay fault"));
  Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () ->
      List.iter
        (fun (call, f) ->
          match f dir with
          | () -> Alcotest.failf "%s: an unreplayed map must not be read" call
          | exception Shard.Map_unresolved d ->
              check Alcotest.string (call ^ " names the directory") dir d;
              check (Alcotest.list Alcotest.string) (call ^ " removes nothing") before
                (shard_dirs dir))
        [
          ("open_", fun d -> Shard.close (Shard.open_ d));
          ("load_map", fun d -> ignore (Shard.load_map d));
        ]);
  let t2 = Shard.open_ dir in
  check (Alcotest.list Alcotest.string) "the committed map is read"
    [ "shard-000"; "shard-002"; "shard-003"; "shard-004" ] (shard_names t2);
  check (Alcotest.list Alcotest.string) "the source is swept" (shard_names t2)
    (shard_dirs dir);
  check_contiguous t2 ~total:12;
  check answers_testable "the ranking is whole" expect
    (Shard.query t2 ~k:50 nexi).Shard.answers;
  Shard.close t2;
  rm_rf dir

(* A [shard-NNN] directory the map does not name is swept at open; other
   entries are left alone; and nothing is swept while a directory the
   map names is missing. *)
let test_stray_shard_swept () =
  let coll, docs, _engine = corpus ~docs:8 ~seed:17 in
  let dir = temp_dir () in
  Shard.close (Shard.create ~dir ~shards:2 ~alias:coll.alias docs);
  let stray = Filename.concat dir "shard-007" and other = Filename.concat dir "notes" in
  let plant () =
    Unix.mkdir stray 0o755;
    close_out (open_out (Filename.concat stray "leftover.tbl"))
  in
  plant ();
  Unix.mkdir other 0o755;
  Shard.close (Shard.open_ dir);
  Alcotest.(check bool) "the stray shard directory is swept" false (Sys.file_exists stray);
  Alcotest.(check bool) "a non-shard directory is kept" true (Sys.file_exists other);
  plant ();
  rm_rf (Filename.concat dir "shard-001");
  let t = Shard.open_ dir in
  Alcotest.(check bool) "the missing shard is blocked" true
    (List.mem_assoc "shard-001" (Shard.blocked t));
  Shard.close t;
  Alcotest.(check bool) "nothing is swept while a mapped shard is missing" true
    (Sys.file_exists stray);
  check (Alcotest.list Alcotest.string) "load_map reads the same map"
    [ "shard-000"; "shard-001" ]
    (List.map (fun (i : Shard.shard_info) -> i.Shard.name) (Shard.load_map dir));
  Alcotest.(check bool) "load_map sweeps nothing either" true (Sys.file_exists stray);
  rm_rf dir

(* A directory with no shard map — an empty one, a plain environment —
   is refused with one typed error, and not a byte in it changes. *)
let test_not_a_coordinator_refused () =
  let rec snapshot path =
    if Sys.is_directory path then
      List.concat_map
        (fun e -> snapshot (Filename.concat path e))
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ (path, In_channel.with_open_bin path In_channel.input_all) ]
  in
  let coll, docs, _engine = corpus ~docs:6 ~seed:19 in
  let plain = temp_dir () in
  let env = Env.on_disk plain in
  ignore (Trex.build ~env ~alias:coll.alias (List.to_seq docs));
  Env.close env;
  let empty = temp_dir () in
  List.iter
    (fun (what, dir) ->
      let before = snapshot dir in
      Alcotest.(check bool) (what ^ ": not a coordinator") false (Shard.is_coordinator dir);
      List.iter
        (fun (call, f) ->
          match f dir with
          | () -> Alcotest.failf "%s: %s must refuse" what call
          | exception Shard.Not_a_coordinator d ->
              check Alcotest.string (what ^ ": " ^ call ^ " names the directory") dir d)
        [
          ("open_", fun d -> Shard.close (Shard.open_ d));
          ("load_map", fun d -> ignore (Shard.load_map d));
        ];
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        (what ^ ": every file byte-identical") before (snapshot dir))
    [ ("plain env", plain); ("empty directory", empty) ];
  rm_rf plain;
  rm_rf empty

(* ---- no add through a shard ----

   A shard's docids are a slice of its coordinator's, so an add through
   the shard's own environment would take the next shard's first global
   docid. It is refused before the manifest sees the document. *)

let test_add_to_shard_refused () =
  let coll, docs, engine = corpus ~docs:12 ~seed:31 in
  let dir = temp_dir () in
  Shard.close (Shard.create ~dir ~shards:2 ~alias:coll.alias docs);
  let sdir = Filename.concat dir "shard-000" in
  let files () =
    List.map
      (fun f -> (f, In_channel.with_open_bin (Filename.concat sdir f) In_channel.input_all))
      (List.sort compare (Array.to_list (Sys.readdir sdir)))
  in
  let attached f =
    let env = Env.on_disk sdir in
    Fun.protect ~finally:(fun () -> Env.close env) (fun () -> f (Trex.attach ~env ()))
  in
  let doc_count shard = (Index.stats (Trex.index shard)).Index.doc_count in
  let docs_before = attached doc_count in
  attached (fun shard ->
      (* Closing an environment stamps its headers, so the files are
         compared while it is still open: the manifest and every table
         file as the refused add left them. *)
      let before = files () in
      (match
         Trex.add_document shard ~name:"extra.xml"
           ~xml:"<article><sec>information retrieval</sec></article>"
       with
      | _ -> Alcotest.fail "an add through a shard must be refused"
      | exception Invalid_argument _ -> ());
      let after = files () in
      check (Alcotest.list Alcotest.string) "same files" (List.map fst before)
        (List.map fst after);
      List.iter2
        (fun (f, a) (_, b) -> Alcotest.(check bool) (f ^ " unchanged") true (a = b))
        before after);
  check Alcotest.int "no document was added" docs_before (attached doc_count);
  let t = Shard.open_ dir in
  check answers_testable "the coordinator still answers exactly"
    (baseline engine ~k:5 nexi) (Shard.query t ~k:5 nexi).Shard.answers;
  Shard.close t;
  rm_rf dir

(* ---- seeded shard-fault soak ---- *)

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 3

let soak_queries = [ nexi; "//article//p[about(., database systems)]" ]

let soak_methods =
  [ None; Some Strategy.Ta_method; Some Strategy.Merge_method; Some Strategy.Era_method ]

let flip_bit_in_file path ~off ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit land 7))));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* Flip one bit inside page [page] of a table file, so the page's CRC
   fails on its next physical read. [page] chooses among the file's
   pages given its committed root and page count. *)
let damage_page path ~page =
  let p = Pager.open_file path in
  let victim = page ~root:(Pager.get_root p) ~pages:(Pager.page_count p) in
  let stride = Pager.page_size p + 4 in
  Pager.abort p;
  flip_bit_in_file path ~off:(128 + (victim * stride) + 17) ~bit:3

type soak_counts = { exact : int; degraded : int; raised : int; failovers : int }

(* One soak round: a disk-backed coordinator with materialized lists,
   seeded on-disk page damage in its shards, one shard lost outright on
   some seeds, and budget pressure, must answer every query either
   exactly or as a tagged sound partial. Every seed damages one page of
   a redundant table in one shard, so TA and Merge fail over there; odd
   seeds also damage the root page of a base table, so that shard's
   evaluations raise a typed Corruption and the shard is tagged.
   Exceptions never escape the coordinator. *)
let run_soak_seed seed =
  let coll, docs, engine = corpus ~docs:12 ~seed:(2000 + seed) in
  let dir = temp_dir () in
  let t = Shard.create ~dir ~shards:3 ~alias:coll.alias docs in
  List.iter (Shard.materialize t) soak_queries;
  let names = List.map (fun (i : Shard.shard_info) -> i.Shard.name) (Shard.shards t) in
  Shard.close t;
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
  let rng = Trex_util.Prng.create (seed * 7919) in
  let pick l = List.nth l (Trex_util.Prng.int rng (List.length l)) in
  let file table = Filename.concat (Filename.concat dir (pick names)) (table ^ ".tbl") in
  damage_page
    (file (pick [ "rpls"; "erpls"; "rpl_catalog"; "erpl_catalog" ]))
    ~page:(fun ~root:_ ~pages -> Trex_util.Prng.int rng pages);
  if seed mod 2 = 1 then
    damage_page (file (pick [ "elements"; "postings" ])) ~page:(fun ~root ~pages:_ -> root);
  let t = Shard.open_ dir in
  (* Some seeds also lose a whole shard mid-query. *)
  let lost = if seed mod 3 = 0 then [ "shard-001" ] else [] in
  Shard.set_shard_hook t
    (Some
       (fun name ->
         if List.mem name lost then failwith "soak: injected shard loss"));
  let exact_runs = ref 0 and degraded_runs = ref 0 in
  let raised = ref 0 and failovers = ref 0 in
  List.iter
    (fun q ->
      let scores = List.assoc q exact_scores in
      List.iter
        (fun (method_, deadline_ms) ->
          match Shard.query t ~k:5 ?method_ ?deadline_ms q with
          | r ->
              if r.Shard.fallbacks <> [] then incr failovers;
              if
                List.exists
                  (fun (_, reason) -> String.starts_with ~prefix:"Corruption" reason)
                  r.Shard.degraded_shards
              then incr raised;
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
        (List.map (fun m -> (m, None)) soak_methods @ [ (None, Some 0.0) ]))
    soak_queries;
  (* A failover inside a shard is that shard's own business: with no
     shard raising or lost, health reports every shard breaker closed. *)
  let open_shards =
    List.filter (fun (h : Shard.health) -> h.Shard.h_breaker <> Breaker.Closed) (Shard.health t)
  in
  if !raised = 0 && lost = [] then
    check Alcotest.int (Printf.sprintf "seed %d: no shard breaker open" seed) 0
      (List.length open_shards);
  Shard.close t;
  rm_rf dir;
  Printf.printf "shard soak seed %d: %d exact, %d degraded, %d raised, %d failovers\n%!"
    seed !exact_runs !degraded_runs !raised !failovers;
  (* Damage confined to redundant tables is always routed around. *)
  if seed mod 2 = 0 then
    check Alcotest.int (Printf.sprintf "seed %d: redundant damage raises nothing" seed)
      0 !raised;
  { exact = !exact_runs; degraded = !degraded_runs; raised = !raised; failovers = !failovers }

(* At least two seeds run, so both the even (redundant damage only) and
   the odd (base damage too) schedule are covered. *)
let test_soak () =
  let runs = List.init (max 2 (soak_seeds ())) (fun i -> run_soak_seed (i + 1)) in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 runs in
  Alcotest.(check bool) "some runs exact" true (total (fun c -> c.exact) > 0);
  Alcotest.(check bool) "the soak reached the degraded bucket" true
    (total (fun c -> c.degraded) > 0);
  Alcotest.(check bool) "some run failed over" true (total (fun c -> c.failovers) > 0);
  Alcotest.(check bool) "some shard raised a typed error" true
    (total (fun c -> c.raised) > 0)

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
          Alcotest.test_case "k below 1 refused before dispatch" `Quick
            test_scatter_refuses_nonpositive_k;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "split/merge preserve the ranking" `Quick
            test_rebalance_preserves_ranking;
          Alcotest.test_case "crash matrix: pre or post, never between" `Quick
            test_rebalance_crash_matrix;
          Alcotest.test_case "create crash: refused or whole" `Quick
            test_create_crash;
          Alcotest.test_case "missing mapped shard blocked" `Quick
            test_missing_mapped_shard_quarantines;
          Alcotest.test_case "unreplayed map removes nothing" `Quick
            test_unreplayed_map_removes_nothing;
          Alcotest.test_case "stray shard directories swept" `Quick
            test_stray_shard_swept;
          Alcotest.test_case "non-coordinator dir refused" `Quick
            test_not_a_coordinator_refused;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "add through a shard refused, nothing written" `Quick
            test_add_to_shard_refused;
        ] );
      ("soak", [ Alcotest.test_case "seeded shard-fault soak" `Slow test_soak ]);
    ]
