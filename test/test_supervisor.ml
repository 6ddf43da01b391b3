(* Process-isolated shard worker suite.

   The contract under test (DESIGN.md §6): with every worker process
   healthy, supervised scatter-gather is answer-identical to the
   in-process coordinator and to the single-environment engine; a
   worker killed, wedged, stopped or crashed at any seeded point
   degrades the answer to a tagged sound partial naming the dead
   shard — never a wrong answer, never a dead coordinator; and after
   the supervisor restarts the worker, a follow-up query returns the
   full untagged answer. Escalation hands persistent flappers to the
   shard's circuit breaker, whose half-open probe respawns them.

   The supervisor execs its own binary in worker mode, so this
   executable dispatches to [Supervisor.worker_main] when invoked as
   [shard-worker] (see the bottom of the file).

   TREX_SOAK_SEEDS widens the seeded kill-matrix soak (CI runs 8). *)

module Env = Trex_storage.Env
module Breaker = Trex_resilience.Breaker
module Retry = Trex_resilience.Retry
module Metrics = Trex_obs.Metrics
module Span = Trex_obs.Span
module Journal = Trex_obs.Journal
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Wire = Trex_shard.Wire
module Strategy = Trex_topk.Strategy
module Answer = Trex_topk.Answer
module Types = Trex_invindex.Types

let check = Alcotest.check
let metric name = Metrics.value (Metrics.counter name)

let temp_dir () =
  let dir = Filename.temp_file "trex_supervisor" "" in
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

let nexi = "//article//sec[about(., information retrieval)]"
let nexi2 = "//article//p[about(., database systems)]"

(* One corpus on disk as a 3-shard coordinator, plus a single-env
   in-memory baseline engine over the same documents. *)
let build_coordinator ~docs:doc_count ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count ~seed () in
  let docs = List.of_seq (coll.docs ()) in
  let env = Env.in_memory () in
  let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
  let dir = temp_dir () in
  Shard.close (Shard.create ~dir ~shards:3 ~alias:coll.alias docs);
  (dir, engine)

let baseline engine ?method_ ~k q =
  (Trex.query engine ~k ?method_ q).Trex.strategy.Strategy.answers

(* Rank identity over (docid, endpos, length, score) — shard summaries
   number sids locally, so sid labels legitimately differ. *)
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

(* The exact answer over every document outside the lost shards. *)
let surviving_baseline engine infos ~lost ~k q =
  let full = baseline engine ~k:1_000_000 q in
  let ranges =
    List.filter_map
      (fun (i : Shard.shard_info) ->
        if List.mem i.Shard.name lost then Some (i.base, i.base + i.docs)
        else None)
      infos
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

(* Tight timings so the suite exercises heartbeats and restarts in
   tens of milliseconds instead of seconds. *)
let fast_config =
  {
    Supervisor.heartbeat_interval_s = 0.05;
    heartbeat_timeout_s = 0.5;
    deadline_grace_ms = 150.0;
    max_restarts = 3;
    restart_policy =
      { Retry.default_policy with base_delay_ms = 5.0; max_delay_ms = 20.0 };
    connect_timeout_s = 1.0;
  }

let with_supervisor ?(config = fast_config) ?remote dir f =
  let s = Supervisor.create ~config ?remote dir in
  Fun.protect ~finally:(fun () -> Supervisor.close s) (fun () -> f s)

let require_healthy ?(timeout_s = 10.0) s =
  if not (Supervisor.await_healthy ~timeout_s s) then
    Alcotest.fail "workers did not become healthy in time"

(* ---- wire roundtrips ---- *)

let test_wire_roundtrip () =
  let q =
    Wire.Query
      {
        Wire.q_nexi = nexi;
        q_k = 7;
        q_method = Some Strategy.Ta_method;
        q_strict = true;
        q_floor = 0.123456789012345678;
        q_deadline_ms = Some 1234.5;
        q_page_budget = Some 99;
        q_scoring = Trex_scoring.Scorer.default;
        q_fault = Some "kill:pre-reply";
        q_trace = true;
        q_journal = true;
        q_trace_id = Some "deadbeef-7";
      }
  in
  (match Wire.decode_request (Wire.encode_request q) with
  | Wire.Query q' ->
      Alcotest.(check string) "nexi" nexi q'.Wire.q_nexi;
      Alcotest.(check int) "k" 7 q'.Wire.q_k;
      Alcotest.(check bool) "floor is bit-identical" true
        (q'.Wire.q_floor = 0.123456789012345678);
      Alcotest.(check (option string)) "fault" (Some "kill:pre-reply")
        q'.Wire.q_fault;
      Alcotest.(check bool) "trace flag" true q'.Wire.q_trace;
      Alcotest.(check bool) "journal flag" true q'.Wire.q_journal;
      Alcotest.(check (option string)) "trace id" (Some "deadbeef-7")
        q'.Wire.q_trace_id
  | _ -> Alcotest.fail "query did not roundtrip");
  let entry score =
    {
      Answer.element = { Types.sid = 3; docid = 5; endpos = 120; length = 17 };
      score;
    }
  in
  let leaf =
    {
      Span.name = "eval.ta";
      seconds = 0.002;
      start_s = 101.5;
      attrs = [ ("strategy", "ta") ];
      children = [];
    }
  in
  let root =
    {
      Span.name = "shard.query.shard-001";
      seconds = 0.003;
      start_s = 101.4;
      attrs = [ ("pid", "4242") ];
      children = [ leaf ];
    }
  in
  let wrecord =
    {
      Journal.qid = 0;
      ts = 1700000000.0;
      digest = "0badcafe";
      label = "shard:shard-001|" ^ nexi;
      strategy = "ta";
      k = 7;
      wall_ms = 3.25;
      pages_read = 11;
      cache_hit_ratio = 0.5;
      heap_ops = 17;
      degraded = false;
      fallbacks = 0;
      retried = false;
      sids = [ 2; 9 ];
      terms = [ "xml" ];
      spans = [ ("shard.query.shard-001", 3.0) ];
    }
  in
  let a =
    Wire.Answer
      {
        Wire.a_degraded = true;
        a_method = Some Strategy.Merge_method;
        a_entries_read = 42;
        a_elapsed_s = 0.0375;
        a_pages_used = 6;
        a_answers = [ entry 0.9876543210123456; entry 1e-300 ];
        a_spans = [ root ];
        a_counters = [ ("pager.physical_reads", 11); ("ta.heap_operations", 17) ];
        a_journal = Some wrecord;
        a_error = None;
      }
  in
  match Wire.decode_response (Wire.encode_response a) with
  | Wire.Answer a' ->
      Alcotest.(check bool) "degraded" true a'.Wire.a_degraded;
      Alcotest.(check int) "pages" 6 a'.Wire.a_pages_used;
      check answers_testable "entries bit-identical"
        [ entry 0.9876543210123456; entry 1e-300 ]
        a'.Wire.a_answers;
      (match a'.Wire.a_spans with
      | [ r ] ->
          Alcotest.(check string) "span root" "shard.query.shard-001" r.Span.name;
          Alcotest.(check (float 1e-12)) "span start survives" 101.4 r.Span.start_s;
          (match r.Span.children with
          | [ l ] -> Alcotest.(check string) "span child" "eval.ta" l.Span.name
          | _ -> Alcotest.fail "span children did not roundtrip")
      | _ -> Alcotest.fail "spans did not roundtrip");
      Alcotest.(check (list (pair string int)))
        "counters roundtrip"
        [ ("pager.physical_reads", 11); ("ta.heap_operations", 17) ]
        a'.Wire.a_counters;
      (match a'.Wire.a_journal with
      | Some r ->
          Alcotest.(check string) "journal strategy" "ta" r.Journal.strategy;
          Alcotest.(check int) "journal pages" 11 r.Journal.pages_read;
          Alcotest.(check (list int)) "journal sids" [ 2; 9 ] r.Journal.sids
      | None -> Alcotest.fail "journal record did not roundtrip")
  | _ -> Alcotest.fail "answer did not roundtrip"

(* A worker that predates wire versioning (no "wire" member in Hello)
   or speaks a different revision must be rejected at decode — the
   supervisor then treats it as a worker failure, so a mixed fleet
   fails loud instead of silently dropping telemetry. *)
let test_wire_version_mismatch () =
  let expect_mismatch json =
    match Wire.decode_response json with
    | exception Wire.Protocol_error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the mismatch: %s" e)
          true
          (String.length e >= 12 && String.sub e 0 12 = "wire version")
    | _ -> Alcotest.fail "stale Hello was accepted"
  in
  expect_mismatch {|{"hello":"shard-001","pid":42,"docs":7}|};
  expect_mismatch {|{"hello":"shard-001","pid":42,"docs":7,"wire":1}|};
  match
    Wire.decode_response
      (Printf.sprintf {|{"hello":"shard-001","pid":42,"docs":7,"wire":%d}|}
         Wire.version)
  with
  | Wire.Hello h -> Alcotest.(check int) "current version accepted" Wire.version h.h_wire
  | _ -> Alcotest.fail "current-version Hello rejected"

(* v3 serving messages: client query/answer, shed, drain. *)
let test_wire_client_roundtrip () =
  let cq =
    Wire.Client_query
      {
        Wire.c_nexi = nexi;
        c_k = 9;
        c_method = Some Strategy.Merge_method;
        c_strict = true;
        c_deadline_ms = Some 250.0;
        c_page_budget = Some 64;
      }
  in
  (match Wire.decode_request (Wire.encode_request cq) with
  | Wire.Client_query c ->
      Alcotest.(check string) "nexi" nexi c.Wire.c_nexi;
      Alcotest.(check int) "k" 9 c.Wire.c_k;
      Alcotest.(check bool) "strict" true c.Wire.c_strict;
      Alcotest.(check (option (float 1e-9))) "deadline" (Some 250.0)
        c.Wire.c_deadline_ms;
      Alcotest.(check (option int)) "page budget" (Some 64) c.Wire.c_page_budget
  | _ -> Alcotest.fail "client query did not roundtrip");
  let entry =
    {
      Answer.element = { Types.sid = 3; docid = 105; endpos = 120; length = 17 };
      score = 0.5000000000000012;
    }
  in
  let ca =
    Wire.Client_answer
      {
        Wire.ca_answers = [ entry ];
        ca_k = 9;
        ca_degraded = true;
        ca_tags = [ ("shard-001", "worker died mid-query") ];
        ca_method = Some "merge";
        ca_elapsed_s = 0.0125;
      }
  in
  (match Wire.decode_response (Wire.encode_response ca) with
  | Wire.Client_answer c ->
      check answers_testable "answers bit-identical" [ entry ] c.Wire.ca_answers;
      Alcotest.(check bool) "degraded" true c.Wire.ca_degraded;
      Alcotest.(check (list (pair string string)))
        "tags"
        [ ("shard-001", "worker died mid-query") ]
        c.Wire.ca_tags;
      Alcotest.(check (option string)) "method" (Some "merge") c.Wire.ca_method
  | _ -> Alcotest.fail "client answer did not roundtrip");
  (match
     Wire.decode_response
       (Wire.encode_response
          (Wire.Shed { retry_after_ms = 75.5; reason = "queue full" }))
   with
  | Wire.Shed { retry_after_ms; reason } ->
      Alcotest.(check (float 1e-9)) "retry_after" 75.5 retry_after_ms;
      Alcotest.(check string) "reason" "queue full" reason
  | _ -> Alcotest.fail "shed did not roundtrip");
  match Wire.decode_response (Wire.encode_response Wire.Drain) with
  | Wire.Drain -> ()
  | _ -> Alcotest.fail "drain did not roundtrip"

(* ---- healthy path: rank identity through worker processes ---- *)

let test_rank_identity () =
  let dir, engine = build_coordinator ~docs:24 ~seed:42 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  List.iter
    (fun q ->
      List.iter
        (fun k ->
          let r = Supervisor.query s ~k q in
          Alcotest.(check bool)
            (Printf.sprintf "untagged (k=%d)" k)
            false r.Shard.degraded;
          check answers_testable
            (Printf.sprintf "process scatter = single env (k=%d)" k)
            (baseline engine ~k q) r.Shard.answers)
        [ 1; 5; 10 ])
    [ nexi; nexi2 ];
  let r = Supervisor.query s ~k:5 nexi in
  Alcotest.(check int) "every shard reports" 3 (List.length r.Shard.reports);
  rm_rf dir

(* fanout=1 serializes the scatter into waves, so later waves receive a
   non-zero floor — results must not change. *)
let test_rank_identity_waved () =
  let dir, engine = build_coordinator ~docs:24 ~seed:43 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let r = Supervisor.query s ~k:3 ~fanout:1 nexi in
  Alcotest.(check bool) "untagged" false r.Shard.degraded;
  check answers_testable "waved scatter = single env" (baseline engine ~k:3 nexi)
    r.Shard.answers;
  Alcotest.(check bool) "a later wave saw a floor" true
    (List.exists (fun (rep : Shard.shard_report) -> rep.r_floor > 0.0)
       r.Shard.reports);
  rm_rf dir

(* ---- one scatter core: the supervised path matches the in-process
   path field for field, and per-query failures never cost a worker ---- *)

let all_restarts s =
  List.map (fun h -> h.Supervisor.w_total_restarts) (Supervisor.health s)

(* (shard, method), (kept, floor): the floor in hex, so equal means
   bit-identical. *)
let report_sig (r : Shard.shard_report) =
  ( (r.Shard.r_shard, Option.map Strategy.method_to_string r.Shard.r_method),
    (r.Shard.r_kept, Printf.sprintf "%h" r.Shard.r_floor) )

(* Same shard dir, same query: in-process and fanout-1 supervised
   scatter visit the shards in the same waves with the same floors, so
   answers, tags and per-shard reports agree exactly. *)
let test_in_process_parity () =
  let dir, _engine = build_coordinator ~docs:24 ~seed:42 in
  let cases =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun method_ ->
            List.map (fun deadline_ms -> (k, method_, deadline_ms)) [ None; Some 0.0 ])
          [ None; Some Strategy.Era_method ])
      [ 1; 5; 10 ]
  in
  let run query =
    List.concat_map
      (fun q ->
        List.map (fun (k, method_, deadline_ms) -> query ~k ?method_ ?deadline_ms q) cases)
      [ nexi; nexi2 ]
  in
  let t = Shard.open_ dir in
  Shard.materialize t nexi;
  let in_process =
    run (fun ~k ?method_ ?deadline_ms q -> Shard.query t ~k ?method_ ?deadline_ms q)
  in
  Shard.close t;
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let supervised =
    run (fun ~k ?method_ ?deadline_ms q ->
        Supervisor.query s ~k ?method_ ?deadline_ms ~fanout:1 q)
  in
  List.iteri
    (fun i ((a : Shard.result), (b : Shard.result)) ->
      let name what = Printf.sprintf "case %d: %s" i what in
      check answers_testable (name "answers") a.Shard.answers b.Shard.answers;
      Alcotest.(check (list (pair string string)))
        (name "degraded shards") a.Shard.degraded_shards b.Shard.degraded_shards;
      Alcotest.(check (list (pair (pair string (option string)) (pair int string))))
        (name "reports")
        (List.map report_sig a.Shard.reports)
        (List.map report_sig b.Shard.reports))
    (List.combine in_process supervised);
  Alcotest.(check (list int)) "no worker restarted" [ 0; 0; 0 ] (all_restarts s);
  rm_rf dir

(* A malformed query is the caller's error: it is refused before any
   dispatch, exactly as in-process, and no worker sees it. *)
let test_malformed_nexi () =
  let dir, engine = build_coordinator ~docs:12 ~seed:5 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  (match Supervisor.query s ~k:5 "//article[" with
  | exception Trex_nexi.Parser.Syntax_error _ -> ()
  | _ -> Alcotest.fail "malformed NEXI was answered");
  Alcotest.(check (list int)) "no worker restarted" [ 0; 0; 0 ] (all_restarts s);
  let r = Supervisor.query s ~k:5 nexi in
  Alcotest.(check bool) "fleet still whole" false r.Shard.degraded;
  check answers_testable "follow-up answer" (baseline engine ~k:5 nexi) r.Shard.answers;
  rm_rf dir

(* A forced method over lists the shards lack fails the query on every
   shard — tagged with the same text as in-process, a breaker failure
   each — and every worker stays up. *)
let test_forced_method_without_lists () =
  let dir, _engine = build_coordinator ~docs:12 ~seed:6 in
  let t = Shard.open_ dir in
  let expect = Shard.query t ~k:5 ~method_:Strategy.Merge_method nexi in
  Shard.close t;
  Alcotest.(check int) "in-process tags every shard" 3
    (List.length expect.Shard.degraded_shards);
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let r = Supervisor.query s ~k:5 ~method_:Strategy.Merge_method nexi in
  Alcotest.(check (list (pair string string)))
    "same tags as in-process" expect.Shard.degraded_shards r.Shard.degraded_shards;
  Alcotest.(check int) "no answers" 0 (List.length r.Shard.answers);
  (* Each failure counts against the shard's breaker: two more trip it,
     with the failure text as the reason. *)
  for _ = 1 to 2 do
    ignore (Supervisor.query s ~k:5 ~method_:Strategy.Merge_method nexi)
  done;
  List.iter
    (fun (name, reason) ->
      let b = Supervisor.breaker s name in
      Alcotest.(check bool) (name ^ " breaker open") true (Breaker.state b = Breaker.Open);
      Alcotest.(check (option string)) (name ^ " trip reason") (Some reason)
        (Breaker.last_reason b))
    r.Shard.degraded_shards;
  Alcotest.(check (list int)) "no worker restarted" [ 0; 0; 0 ] (all_restarts s);
  Alcotest.(check bool) "every worker ready" true
    (List.for_all (fun h -> h.Supervisor.w_state = Supervisor.Ready) (Supervisor.health s));
  rm_rf dir

let test_wire_answer_error () =
  let a =
    {
      Wire.a_degraded = false;
      a_method = None;
      a_entries_read = 0;
      a_elapsed_s = 0.0;
      a_pages_used = 0;
      a_answers = [];
      a_spans = [];
      a_counters = [];
      a_journal = None;
      a_error = Some "Missing_list";
    }
  in
  match Wire.decode_response (Wire.encode_response (Wire.Answer a)) with
  | Wire.Answer a' ->
      Alcotest.(check (option string))
        "error survives" (Some "Missing_list") a'.Wire.a_error
  | _ -> Alcotest.fail "answer did not roundtrip"

(* ---- the kill matrix ----

   Each case arms one fault, asserts the degraded query is a tagged
   sound partial (identical to the exact answer over the surviving
   shards), waits for the supervisor to restart the worker, and
   asserts the follow-up query is the full untagged answer. *)

let victim = "shard-001"

type matrix_case = {
  c_name : string;
  c_fault : string option;  (* armed on the victim's next query *)
  c_deadline_ms : float option;
  c_pre : Supervisor.t -> unit;  (* fired just before the query *)
  c_answers_full : bool;
      (* the victim's answer escapes before the fault fires *)
}

let nothing _ = ()

let matrix =
  [
    {
      c_name = "pre-scatter";
      c_fault = None;
      c_deadline_ms = None;
      c_pre =
        (fun s ->
          match Supervisor.worker_pid s victim with
          | Some pid -> Unix.kill pid Sys.sigkill
          | None -> Alcotest.fail "victim has no live worker");
      c_answers_full = false;
    };
    {
      c_name = "kill:mid-decode";
      c_fault = Some "kill:mid-decode";
      c_deadline_ms = None;
      c_pre = nothing;
      c_answers_full = false;
    };
    {
      c_name = "exit:mid-decode";
      c_fault = Some "exit:mid-decode";
      c_deadline_ms = None;
      c_pre = nothing;
      c_answers_full = false;
    };
    {
      c_name = "kill:pre-reply";
      c_fault = Some "kill:pre-reply";
      c_deadline_ms = None;
      c_pre = nothing;
      c_answers_full = false;
    };
    {
      c_name = "wedge:mid-decode";
      c_fault = Some "wedge:mid-decode";
      c_deadline_ms = Some 800.0;
      c_pre = nothing;
      c_answers_full = false;
    };
    {
      c_name = "stop:post-reply";
      c_fault = Some "stop:post-reply";
      c_deadline_ms = None;
      c_pre = nothing;
      c_answers_full = true;
    };
  ]

let run_matrix_case engine infos s case ~k ~q =
  (match case.c_fault with
  | Some f -> Supervisor.set_fault s ~shard:victim (Some f)
  | None -> ());
  case.c_pre s;
  let r = Supervisor.query s ~k ?deadline_ms:case.c_deadline_ms q in
  if case.c_answers_full then begin
    (* The fault fires after the answer frame: this query is whole;
       the damage surfaces through heartbeats below. *)
    Alcotest.(check bool) (case.c_name ^ ": untagged") false r.Shard.degraded;
    check answers_testable
      (case.c_name ^ ": full answer")
      (baseline engine ~k q) r.Shard.answers;
    (* Drive supervision until the heartbeat timeout reaps the stopped
       worker. *)
    let t0 = Unix.gettimeofday () in
    let before = metric "supervisor.heartbeat_timeouts" in
    while
      metric "supervisor.heartbeat_timeouts" = before
      && Unix.gettimeofday () -. t0 < 10.0
    do
      Supervisor.tick s;
      ignore (Unix.select [] [] [] 0.02)
    done;
    Alcotest.(check bool)
      (case.c_name ^ ": heartbeat timeout fired")
      true
      (metric "supervisor.heartbeat_timeouts" > before)
  end
  else begin
    Alcotest.(check bool) (case.c_name ^ ": degraded") true r.Shard.degraded;
    Alcotest.(check bool)
      (case.c_name ^ ": victim tagged")
      true
      (List.mem_assoc victim r.Shard.degraded_shards);
    check answers_testable
      (case.c_name ^ ": sound partial over survivors")
      (surviving_baseline engine infos ~lost:[ victim ] ~k q)
      r.Shard.answers
  end;
  (* Recovery: the worker restarts and the next query is whole. *)
  require_healthy s;
  let r2 = Supervisor.query s ~k q in
  Alcotest.(check bool) (case.c_name ^ ": recovered untagged") false
    r2.Shard.degraded;
  check answers_testable
    (case.c_name ^ ": recovered full answer")
    (baseline engine ~k q) r2.Shard.answers

let test_kill_matrix () =
  let dir, engine = build_coordinator ~docs:18 ~seed:77 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let infos = Supervisor.shards s in
  let spawns0 = metric "supervisor.spawns" in
  let restarts0 = metric "supervisor.restarts" in
  List.iter (fun case -> run_matrix_case engine infos s case ~k:5 ~q:nexi) matrix;
  Alcotest.(check bool) "every case respawned a worker" true
    (metric "supervisor.spawns" - spawns0 >= List.length matrix);
  Alcotest.(check bool) "restarts were counted" true
    (metric "supervisor.restarts" - restarts0 >= List.length matrix);
  rm_rf dir

(* ---- escalation to the breaker, recovery via half-open probe ---- *)

let test_escalation_and_probe () =
  let dir, engine = build_coordinator ~docs:12 ~seed:99 in
  let config = { fast_config with Supervisor.max_restarts = 1 } in
  with_supervisor ~config dir @@ fun s ->
  require_healthy s;
  let b = Supervisor.breaker s victim in
  let esc0 = metric "supervisor.escalations" in
  (* Two deaths with no successful answer between exhaust the restart
     budget (max_restarts = 1) and trip the breaker. *)
  let rec flap n =
    if Breaker.state b <> Breaker.Open then begin
      if n > 40 then Alcotest.fail "victim never escalated";
      Supervisor.set_fault s ~shard:victim (Some "kill:mid-decode");
      ignore (Supervisor.query s ~k:3 nexi);
      (* Let the backoff elapse and the worker respawn so the next
         fault has a live target. *)
      ignore (Supervisor.await_healthy ~timeout_s:2.0 s);
      flap (n + 1)
    end
  in
  flap 0;
  Alcotest.(check bool) "escalation was counted" true
    (metric "supervisor.escalations" > esc0);
  (* While escalated: queries degrade to tagged sound partials. *)
  let r = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "degraded while escalated" true r.Shard.degraded;
  check answers_testable "escalated partial is sound"
    (surviving_baseline engine (Supervisor.shards s) ~lost:[ victim ] ~k:3 nexi)
    r.Shard.answers;
  (* Cooldown over: the next tick admits a respawn as the half-open
     probe; its successful handshake closes the circuit. *)
  Breaker.set_cooldown b 0.0;
  require_healthy s;
  Alcotest.(check bool) "probe closed the breaker" true
    (Breaker.state b = Breaker.Closed);
  let r2 = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "recovered untagged" false r2.Shard.degraded;
  check answers_testable "recovered full answer" (baseline engine ~k:3 nexi)
    r2.Shard.answers;
  rm_rf dir

(* Two flapping workers escalate independently and neither starves the
   other's half-open probe slot: both breakers close once their own
   probe handshakes. *)
let test_probe_storm_two_workers () =
  let dir, engine = build_coordinator ~docs:12 ~seed:101 in
  let config = { fast_config with Supervisor.max_restarts = 0 } in
  with_supervisor ~config dir @@ fun s ->
  require_healthy s;
  let victims = [ "shard-000"; "shard-002" ] in
  List.iter
    (fun v -> Supervisor.set_fault s ~shard:v (Some "kill:mid-decode"))
    victims;
  (* max_restarts = 0: the first death escalates immediately — both
     victims trip their breakers in the same query. *)
  let r = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "both victims tagged" true
    (List.for_all (fun v -> List.mem_assoc v r.Shard.degraded_shards) victims);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " breaker open") true
        (Breaker.state (Supervisor.breaker s v) = Breaker.Open))
    victims;
  check answers_testable "double-loss partial is sound"
    (surviving_baseline engine (Supervisor.shards s) ~lost:victims ~k:3 nexi)
    r.Shard.answers;
  (* Clear both cooldowns; both probes must be admitted — one worker's
     probe slot is per-breaker, not global. *)
  List.iter (fun v -> Breaker.set_cooldown (Supervisor.breaker s v) 0.0) victims;
  require_healthy s;
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " breaker closed by its own probe") true
        (Breaker.state (Supervisor.breaker s v) = Breaker.Closed))
    victims;
  let r2 = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "recovered untagged" false r2.Shard.degraded;
  check answers_testable "recovered full answer" (baseline engine ~k:3 nexi)
    r2.Shard.answers;
  rm_rf dir

(* ---- stale worker artifacts are swept at coordinator open ---- *)

let test_stale_artifact_sweep () =
  let dir, _engine = build_coordinator ~docs:12 ~seed:7 in
  (* A dead-for-sure pid: a reaped child. *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  let sdir = Filename.concat dir "shard-000" in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write (Filename.concat sdir "worker.pid") (string_of_int dead_pid ^ "\n");
  write (Filename.concat (Filename.concat dir "shard-001") "worker.pid") "garbage\n";
  write (Filename.concat sdir "worker.sock") "";
  (* A pid file naming a live process must be left alone. *)
  let live =
    Filename.concat (Filename.concat dir "shard-002") "worker.pid"
  in
  write live (string_of_int (Unix.getpid ()) ^ "\n");
  let before = metric "supervisor.stale_sweeps" in
  let t = Shard.open_ dir in
  Shard.close t;
  check Alcotest.int "three stale artifacts swept" 3
    (metric "supervisor.stale_sweeps" - before);
  Alcotest.(check bool) "dead pid file removed" false
    (Sys.file_exists (Filename.concat sdir "worker.pid"));
  Alcotest.(check bool) "socket path removed" false
    (Sys.file_exists (Filename.concat sdir "worker.sock"));
  Alcotest.(check bool) "live pid file kept" true (Sys.file_exists live);
  Sys.remove live;
  (* The supervisor leaves a live worker.pid behind only on unclean
     death; a clean close removes it. *)
  with_supervisor dir (fun s ->
      require_healthy s;
      Alcotest.(check bool) "worker wrote its pid file" true
        (Sys.file_exists (Filename.concat sdir "worker.pid")));
  let t0 = Unix.gettimeofday () in
  while
    Sys.file_exists (Filename.concat sdir "worker.pid")
    && Unix.gettimeofday () -. t0 < 5.0
  do
    ignore (Unix.select [] [] [] 0.02)
  done;
  Alcotest.(check bool) "clean shutdown removed the pid file" false
    (Sys.file_exists (Filename.concat sdir "worker.pid"));
  rm_rf dir

(* ---- cross-process telemetry harvest ---- *)

let with_telemetry f =
  Span.set_enabled true;
  Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Journal.set_enabled false;
      Span.reset ())
    f

let find_supervisor_root () =
  match
    List.find_opt
      (fun (s : Span.t) -> s.Span.name = "supervisor.query")
      (Span.roots ())
  with
  | Some s -> s
  | None -> Alcotest.fail "no supervisor.query span was recorded"

(* The acceptance bar for the harvest: the merged registry's counters
   for the process path equal the in-process path for the same query,
   per-shard worker.<shard>.* views exist, the merged span tree carries
   worker-side spans under supervisor.worker, and the coordinator
   journals one record per supervised query with per-shard breakdown.
   Two levellers make the comparison exact: fanout:1 serializes the
   scatter so the floor evolves exactly as the in-process coordinator's
   sequential loop (concurrent waves see weaker floors and legitimately
   read more), and a warm-up query runs on the in-process path first —
   workers arrive warm because the Hello handshake's [Index.stats] scan
   pages the shard in, so the cold-cache miss/hit split would otherwise
   differ while the work stays identical. *)
let test_telemetry_merge () =
  let dir, _engine = build_coordinator ~docs:24 ~seed:55 in
  let tracked =
    [
      "pager.physical_reads";
      "pager.cache_hits";
      "era.positions_scanned";
      "era.elements_emitted";
      "ta.heap_operations";
      "strategy.runs.ERA";
    ]
  in
  let deltas f =
    let before = List.map metric tracked in
    let r = f () in
    (r, List.map2 (fun n b -> metric n - b) tracked before)
  in
  let t = Shard.open_ dir in
  ignore (Shard.query t ~k:5 nexi) (* warm the page cache *);
  let r_in, in_deltas = deltas (fun () -> Shard.query t ~k:5 nexi) in
  Shard.close t;
  Alcotest.(check bool) "in-process work is visible (hits > 0)" true
    (List.nth in_deltas 1 > 0);
  with_telemetry @@ fun () ->
  with_supervisor dir (fun s ->
      require_healthy s;
      Span.reset ();
      let wb = metric "worker.shard-000.pager.cache_hits" in
      let r, proc_deltas =
        deltas (fun () -> Supervisor.query s ~k:5 ~fanout:1 nexi)
      in
      Alcotest.(check bool) "untagged" false r.Shard.degraded;
      check answers_testable "answers identical across paths"
        r_in.Shard.answers r.Shard.answers;
      List.iteri
        (fun i n ->
          check Alcotest.int
            (n ^ ": merged process-path delta = in-process delta")
            (List.nth in_deltas i) (List.nth proc_deltas i))
        tracked;
      Alcotest.(check bool) "per-shard worker.* view absorbed" true
        (metric "worker.shard-000.pager.cache_hits" > wb);
      (* One merged tree: every worker's spans grafted under its
         supervisor.worker span. *)
      let root = find_supervisor_root () in
      let workers =
        List.filter
          (fun (c : Span.t) -> c.Span.name = "supervisor.worker")
          root.Span.children
      in
      Alcotest.(check int) "one supervisor.worker span per shard" 3
        (List.length workers);
      List.iter
        (fun (w : Span.t) ->
          Alcotest.(check bool)
            "worker-side shard.query.* span grafted underneath" true
            (List.exists
               (fun (c : Span.t) ->
                 String.starts_with ~prefix:"shard.query." c.Span.name)
               w.Span.children))
        workers);
  (* The coordinator journal saw the supervised query. *)
  let j = Journal.open_file (Filename.concat dir "query_journal.qj") in
  let recs = Journal.records j in
  Journal.close j;
  (match recs with
  | [ r ] ->
      Alcotest.(check string) "strategy" "supervised" r.Journal.strategy;
      Alcotest.(check string) "label is the NEXI text" nexi r.Journal.label;
      Alcotest.(check bool) "untagged" false r.Journal.degraded;
      (* Workers run warm (Hello's stats scan pages the shard in), so
         physical reads are 0; the absorbed cache hits still surface in
         the record's hit ratio — the fleet's pager activity was
         journaled, not lost. *)
      Alcotest.(check bool) "fleet pager activity absorbed" true
        (r.Journal.cache_hit_ratio > 0.0);
      Alcotest.(check bool) "terms harvested from workers" true
        (r.Journal.terms <> []);
      List.iter
        (fun shard ->
          Alcotest.(check bool)
            ("per-shard breakdown entry for " ^ shard)
            true
            (List.mem_assoc ("shard:" ^ shard) r.Journal.spans))
        [ "shard-000"; "shard-001"; "shard-002" ];
      Alcotest.(check bool) "span summary journaled" true
        (List.mem_assoc "supervisor.query" r.Journal.spans)
  | recs ->
      Alcotest.failf "expected exactly one coordinator record, got %d"
        (List.length recs));
  rm_rf dir

(* Worker death mid-query: telemetry degrades — the merged tree keeps a
   tagged, child-less span for the lost worker, the registry absorbs
   nothing from it, and the journal record marks the shard lost. *)
let test_degraded_telemetry () =
  let dir, engine = build_coordinator ~docs:18 ~seed:66 in
  with_telemetry @@ fun () ->
  with_supervisor dir (fun s ->
      require_healthy s;
      Supervisor.set_fault s ~shard:victim (Some "kill:pre-reply");
      Span.reset ();
      let vb = metric ("worker." ^ victim ^ ".pager.cache_hits") in
      let r = Supervisor.query s ~k:5 nexi in
      Alcotest.(check bool) "degraded" true r.Shard.degraded;
      check answers_testable "sound partial over survivors"
        (surviving_baseline engine (Supervisor.shards s) ~lost:[ victim ] ~k:5
           nexi)
        r.Shard.answers;
      Alcotest.(check int) "dead worker poisoned no counters" vb
        (metric ("worker." ^ victim ^ ".pager.cache_hits"));
      let root = find_supervisor_root () in
      let workers =
        List.filter
          (fun (c : Span.t) -> c.Span.name = "supervisor.worker")
          root.Span.children
      in
      Alcotest.(check int) "every shard represented in the tree" 3
        (List.length workers);
      match
        List.filter
          (fun (w : Span.t) -> List.mem_assoc "lost" w.Span.attrs)
          workers
      with
      | [ lost ] ->
          Alcotest.(check (option string))
            "lost span names the victim" (Some victim)
            (List.assoc_opt "worker" lost.Span.attrs);
          Alcotest.(check int) "lost span has no harvested children" 0
            (List.length lost.Span.children)
      | l -> Alcotest.failf "expected one lost-worker span, got %d" (List.length l));
  let j = Journal.open_file (Filename.concat dir "query_journal.qj") in
  let recs = Journal.records j in
  Journal.close j;
  (match recs with
  | [ r ] ->
      Alcotest.(check bool) "record tagged degraded" true r.Journal.degraded;
      Alcotest.(check bool) "lost shard marked in breakdown" true
        (List.mem_assoc ("lost:" ^ victim) r.Journal.spans);
      Alcotest.(check bool) "survivors still broken down" true
        (List.mem_assoc "shard:shard-000" r.Journal.spans)
  | recs ->
      Alcotest.failf "expected exactly one coordinator record, got %d"
        (List.length recs));
  rm_rf dir

(* ---- heartbeat sequence integrity ----

   A Pong carrying a stale sequence number (the signature of a
   pre-restart worker incarnation) must satisfy neither the
   outstanding Ping nor the liveness clock: the heartbeat timeout
   still fires and the worker is restarted. *)
let test_stale_pong_is_not_a_heartbeat () =
  let dir, engine = build_coordinator ~docs:12 ~seed:88 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  Supervisor.set_fault s ~shard:victim (Some "stale-pong:ping");
  let r = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "arming query is whole" false r.Shard.degraded;
  let before = metric "supervisor.heartbeat_timeouts" in
  let t0 = Unix.gettimeofday () in
  while
    metric "supervisor.heartbeat_timeouts" = before
    && Unix.gettimeofday () -. t0 < 10.0
  do
    Supervisor.tick s;
    ignore (Unix.select [] [] [] 0.01)
  done;
  Alcotest.(check bool) "stale pong did not satisfy the ping" true
    (metric "supervisor.heartbeat_timeouts" > before);
  require_healthy s;
  let r2 = Supervisor.query s ~k:3 nexi in
  Alcotest.(check bool) "recovered untagged" false r2.Shard.degraded;
  check answers_testable "recovered full answer" (baseline engine ~k:3 nexi)
    r2.Shard.answers;
  rm_rf dir

(* ---- worker health report (what `shard health --workers` prints) ---- *)

let test_worker_health_report () =
  let dir, _engine = build_coordinator ~docs:12 ~seed:21 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let rows = Supervisor.health s in
  Alcotest.(check int) "one row per shard" 3 (List.length rows);
  List.iter
    (fun h ->
      Alcotest.(check bool) (h.Supervisor.w_shard ^ " ready") true
        (h.Supervisor.w_state = Supervisor.Ready);
      Alcotest.(check bool) "live pid reported" true (h.Supervisor.w_pid <> None);
      Alcotest.(check int) "no lifetime restarts yet" 0
        h.Supervisor.w_total_restarts;
      Alcotest.(check bool) "heartbeat age known" true
        (h.Supervisor.w_beat_age_s <> None))
    rows;
  (* One kill: after recovery and a successful answer, the consecutive
     counter resets but the lifetime count must survive. *)
  Supervisor.set_fault s ~shard:victim (Some "kill:mid-decode");
  ignore (Supervisor.query s ~k:3 nexi);
  require_healthy s;
  ignore (Supervisor.query s ~k:3 nexi);
  let h =
    List.find (fun h -> h.Supervisor.w_shard = victim) (Supervisor.health s)
  in
  Alcotest.(check int) "consecutive restarts reset by success" 0
    h.Supervisor.w_restarts;
  Alcotest.(check bool) "lifetime restart count retained" true
    (h.Supervisor.w_total_restarts >= 1);
  Alcotest.(check bool) "restarted worker has a live pid" true
    (h.Supervisor.w_pid <> None);
  let untouched =
    List.filter (fun h -> h.Supervisor.w_shard <> victim) (Supervisor.health s)
  in
  List.iter
    (fun h ->
      Alcotest.(check int)
        (h.Supervisor.w_shard ^ " kept a clean lifetime count")
        0 h.Supervisor.w_total_restarts)
    untouched;
  rm_rf dir

(* ---- seeded kill-matrix soak ---- *)

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 3

let test_soak () =
  let dir, engine = build_coordinator ~docs:18 ~seed:1234 in
  with_supervisor dir @@ fun s ->
  require_healthy s;
  let infos = Supervisor.shards s in
  let queries = [ nexi; nexi2 ] in
  let exact = ref 0 and degraded = ref 0 in
  for seed = 1 to soak_seeds () do
    let case = List.nth matrix (seed mod List.length matrix) in
    let q = List.nth queries (seed mod List.length queries) in
    let k = 3 + (seed mod 5) in
    run_matrix_case engine infos s case ~k ~q;
    if case.c_answers_full then incr exact else incr degraded
  done;
  Printf.printf "supervisor soak: %d degraded cases, %d wedge cases\n%!" !degraded
    !exact;
  Alcotest.(check bool) "soak exercised degraded cases" true (!degraded > 0);
  rm_rf dir

(* ---- remote (TCP) workers ---- *)

(* Fork/exec this binary as a long-lived listen worker on an ephemeral
   port, and read the "LISTENING host:port" announcement off its
   stderr. *)
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
            | 0 -> Alcotest.fail "listen worker died before announcing its port"
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                find ())
      in
      let addr = find () in
      (pid, r, addr)

let reap_listen_worker (pid, rfd, _addr) =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  try Unix.close rfd with Unix.Unix_error _ -> ()

(* One shard served by a remote TCP worker, the rest by local
   socketpair children: healthy scatter is rank-identical to the
   single-env baseline (so the telemetry-era protocol, floor filter and
   base offsets all survive the network hop), and SIGKILLing the remote
   process mid-query degrades to a tagged sound partial that keeps
   holding on subsequent queries — reconnects are refused, backoff and
   breaker escalation own the socket, the coordinator never wedges. *)
let test_remote_worker_identity_and_kill () =
  let dir, engine = build_coordinator ~docs:24 ~seed:11 in
  let infos = Shard.load_map dir in
  let rname = (List.hd infos).Shard.name in
  let handle = spawn_listen_worker ~dir ~shard:rname in
  let _, _, addr = handle in
  Fun.protect
    ~finally:(fun () ->
      reap_listen_worker handle;
      rm_rf dir)
  @@ fun () ->
  with_supervisor ~remote:[ (rname, addr) ] dir @@ fun s ->
  require_healthy s;
  let r = Supervisor.query s ~k:10 nexi in
  Alcotest.(check bool) "healthy remote scatter untagged" false r.Shard.degraded;
  Alcotest.(check int) "every shard reports" 3 (List.length r.Shard.reports);
  check answers_testable "remote scatter = single env" (baseline engine ~k:10 nexi)
    r.Shard.answers;
  (* Kill the remote worker mid-query via the armed fault (the fault
     rides the query and SIGKILLs before evaluating). *)
  Supervisor.set_fault s ~shard:rname (Some "kill:mid-decode");
  let r = Supervisor.query s ~k:10 nexi in
  Alcotest.(check bool) "kill mid-query degrades" true r.Shard.degraded;
  Alcotest.(check bool)
    "tag names the remote shard" true
    (List.mem_assoc rname r.Shard.degraded_shards);
  check answers_testable "partial = surviving shards exactly"
    (surviving_baseline engine infos ~lost:[ rname ] ~k:10 nexi)
    r.Shard.answers;
  (* The listener is gone for good: reconnects are refused, so further
     queries stay tagged sound partials (no wedge, no wrong answers). *)
  let r = Supervisor.query s ~k:5 nexi2 in
  Alcotest.(check bool) "still degraded while unreachable" true r.Shard.degraded;
  check answers_testable "still the surviving-shard answer"
    (surviving_baseline engine infos ~lost:[ rname ] ~k:5 nexi2)
    r.Shard.answers

(* A remote worker outlives its coordinator: when one supervisor hangs
   up, the listener returns to accept and serves the next one the full
   untagged answer. *)
let test_remote_worker_survives_coordinator () =
  let dir, engine = build_coordinator ~docs:18 ~seed:13 in
  let infos = Shard.load_map dir in
  let rname = (List.hd infos).Shard.name in
  let handle = spawn_listen_worker ~dir ~shard:rname in
  let _, _, addr = handle in
  Fun.protect
    ~finally:(fun () ->
      reap_listen_worker handle;
      rm_rf dir)
  @@ fun () ->
  let run () =
    with_supervisor ~remote:[ (rname, addr) ] dir @@ fun s ->
    require_healthy s;
    let r = Supervisor.query s ~k:7 nexi in
    Alcotest.(check bool) "untagged" false r.Shard.degraded;
    check answers_testable "rank identity" (baseline engine ~k:7 nexi)
      r.Shard.answers
  in
  run ();
  (* Second coordinator, same listener process. *)
  run ()

let () =
  (* The supervisor execs this very binary as its worker: dispatch
     before Alcotest ever sees argv. *)
  (match Array.to_list Sys.argv with
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
  | _ -> ());
  Alcotest.run "trex_supervisor"
    [
      ( "wire",
        [
          Alcotest.test_case "message roundtrips" `Quick test_wire_roundtrip;
          Alcotest.test_case "version mismatch fails loud" `Quick
            test_wire_version_mismatch;
          Alcotest.test_case "client message roundtrips" `Quick
            test_wire_client_roundtrip;
          Alcotest.test_case "answer error roundtrips" `Quick
            test_wire_answer_error;
        ] );
      ( "identity",
        [
          Alcotest.test_case "rank-identical through worker processes" `Quick
            test_rank_identity;
          Alcotest.test_case "rank-identical with waved scatter (floor)" `Quick
            test_rank_identity_waved;
          Alcotest.test_case "fanout 1 = in-process: answers, tags, reports"
            `Quick test_in_process_parity;
        ] );
      ( "errors",
        [
          Alcotest.test_case "malformed NEXI raises, no worker restarts" `Quick
            test_malformed_nexi;
          Alcotest.test_case "forced method without lists: tagged, workers up"
            `Quick test_forced_method_without_lists;
        ] );
      ( "kill-matrix",
        [ Alcotest.test_case "all seeded kill points" `Quick test_kill_matrix ] );
      ( "escalation",
        [
          Alcotest.test_case "restart budget trips the breaker; probe recovers"
            `Quick test_escalation_and_probe;
          Alcotest.test_case "two flappers keep independent probe slots" `Quick
            test_probe_storm_two_workers;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "harvest merges spans, counters, journal" `Quick
            test_telemetry_merge;
          Alcotest.test_case "worker death degrades telemetry, never poisons"
            `Quick test_degraded_telemetry;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "stale pong is not a heartbeat" `Quick
            test_stale_pong_is_not_a_heartbeat;
        ] );
      ( "health",
        [
          Alcotest.test_case "per-worker restart counts, pid, beat age" `Quick
            test_worker_health_report;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "stale worker artifacts swept at open" `Quick
            test_stale_artifact_sweep;
        ] );
      ( "remote",
        [
          Alcotest.test_case "TCP worker: rank identity, kill, sound partial"
            `Quick test_remote_worker_identity_and_kill;
          Alcotest.test_case "listener outlives its coordinators" `Quick
            test_remote_worker_survives_coordinator;
        ] );
      ("soak", [ Alcotest.test_case "seeded kill soak" `Slow test_soak ]);
    ]
