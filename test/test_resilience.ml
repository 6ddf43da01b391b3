(* Resilience suite: guards, backoff schedules, circuit breakers,
   strategy fallback, degraded queries, autopilot healing — and the
   seeded fault soak.

   The soak damages seeded on-disk pages of an engine and holds every
   query to the DESIGN.md §6 contract:
   it completes with exactly the fault-free answers, or returns a
   correctly-tagged degraded prefix of them, or fails with a typed
   error — never wrong answers, never an unhandled exception.

   TREX_SOAK_SEEDS widens the schedule sweep (CI runs 8). *)

module Pager = Trex_storage.Pager
module Bptree = Trex_storage.Bptree
module Env = Trex_storage.Env
module Guard = Trex_resilience.Guard
module Retry = Trex_resilience.Retry
module Breaker = Trex_resilience.Breaker
module Metrics = Trex_obs.Metrics
module Stopclock = Trex_util.Stopclock

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_resil" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let metric name = Metrics.value (Metrics.counter name)

(* ---- guard ---- *)

let test_guard_unlimited () =
  for _ = 1 to 1000 do
    Guard.tick Guard.unlimited
  done;
  Alcotest.(check bool) "never expires" true (Guard.expired Guard.unlimited = None)

let test_guard_deadline () =
  let g = Guard.create ~deadline_ms:0.0 ~check_every:1 () in
  (match Guard.check g with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Guard.Budget_exceeded { reason = Guard.Deadline; _ } -> ()
  | exception Guard.Budget_exceeded _ -> Alcotest.fail "wrong reason");
  Alcotest.(check bool) "expired reports deadline" true
    (Guard.expired g = Some Guard.Deadline);
  (* tick must raise too once the check interval is reached *)
  let g2 = Guard.create ~deadline_ms:0.0 ~check_every:2 () in
  Guard.tick g2;
  (match Guard.tick g2 with
  | () -> Alcotest.fail "tick past the interval must check"
  | exception Guard.Budget_exceeded _ -> ())

let test_guard_page_budget () =
  (* The guard measures the delta of the process-wide physical-reads
     counter, so bumping the counter is exactly what storage does. *)
  let reads = Metrics.counter "pager.physical_reads" in
  let g = Guard.create ~page_budget:5 ~check_every:1 () in
  Guard.check g;
  for _ = 1 to 6 do
    Metrics.incr reads
  done;
  check Alcotest.int "pages_used sees the delta" 6 (Guard.pages_used g);
  (match Guard.check g with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Guard.Budget_exceeded { reason = Guard.Page_budget; _ } -> ()
  | exception Guard.Budget_exceeded _ -> Alcotest.fail "wrong reason")

(* ---- backoff schedule ---- *)

let test_backoff_schedule () =
  let p =
    { Retry.max_attempts = 5; base_delay_ms = 1.0; max_delay_ms = 4.0;
      jitter = Retry.No_jitter }
  in
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "doubles then caps" [ 1.0; 2.0; 4.0; 4.0 ] (Retry.backoff_delays_ms p)

let test_decorrelated_jitter () =
  let p =
    { Retry.max_attempts = 8; base_delay_ms = 2.0; max_delay_ms = 50.0;
      jitter = Retry.Decorrelated { seed = 42 } }
  in
  let a = Retry.backoff_delays_ms ~salt:1 p in
  (* Deterministic: the same (seed, salt) replays the same schedule. *)
  check
    (Alcotest.list (Alcotest.float 1e-12))
    "replayable" a
    (Retry.backoff_delays_ms ~salt:1 p);
  check Alcotest.int "full length" 7 (List.length a);
  (* Bounded: every delay within [base, cap]. *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "delay %g within [base, cap]" d)
        true
        (d >= p.Retry.base_delay_ms && d <= p.Retry.max_delay_ms))
    a;
  (* Decorrelated: distinct salts (one per reconnecting peer) and
     distinct seeds yield distinct schedules — no thundering herd. *)
  let b = Retry.backoff_delays_ms ~salt:2 p in
  Alcotest.(check bool) "salts decorrelate" true (a <> b);
  let c =
    Retry.backoff_delays_ms ~salt:1
      { p with Retry.jitter = Retry.Decorrelated { seed = 43 } }
  in
  Alcotest.(check bool) "seeds decorrelate" true (a <> c);
  (* The default stays pure capped-exponential. *)
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "no-jitter default unchanged" [ 1.0; 2.0; 4.0 ]
    (Retry.backoff_delays_ms ~salt:7 Retry.default_policy)

(* ---- breaker ---- *)

let test_breaker_lifecycle () =
  let trips0 = metric "resilience.breaker_trips" in
  let b = Breaker.create ~failure_threshold:2 ~cooldown_s:3600.0 "tbl" in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.record_failure b ~reason:"one";
  Alcotest.(check bool) "below threshold stays closed" true
    (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~reason:"two";
  Alcotest.(check bool) "threshold opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open rejects during cooldown" false (Breaker.allow b);
  Breaker.set_cooldown b 0.0;
  Alcotest.(check bool) "elapsed cooldown admits the probe" true (Breaker.allow b);
  Alcotest.(check bool) "now half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_failure b ~reason:"probe failed";
  Alcotest.(check bool) "half-open failure re-opens" true
    (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "probe again" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b = Breaker.Closed);
  Breaker.trip b ~reason:"corruption";
  Alcotest.(check bool) "trip opens immediately" true
    (Breaker.state b = Breaker.Open);
  check
    (Alcotest.option Alcotest.string)
    "last reason kept" (Some "corruption") (Breaker.last_reason b);
  check Alcotest.int "three openings counted" 3
    (metric "resilience.breaker_trips" - trips0)

(* Two flapping workers restarted on the shared backoff schedule (the
   supervisor indexes [backoff_delays_ms] by restart count, clamped to
   the last entry) must keep independent probe slots: one worker's
   in-flight half-open probe must neither take nor block the other's,
   and each circuit resolves on its own probe outcome alone. *)
let test_probe_slots_independent () =
  let policy =
    { Retry.max_attempts = 4; base_delay_ms = 1.0; max_delay_ms = 4.0;
      jitter = Retry.No_jitter }
  in
  let delays = Retry.backoff_delays_ms policy in
  let delay_for restarts =
    List.nth delays (min restarts (List.length delays - 1))
  in
  (* Past the end of the schedule the supervisor keeps paying the cap,
     never wraps back to the aggressive base delay. *)
  check (Alcotest.float 1e-9) "clamped past the schedule" policy.max_delay_ms
    (delay_for 100);
  let a = Breaker.create ~failure_threshold:2 ~cooldown_s:1e9 "worker-a" in
  let b = Breaker.create ~failure_threshold:2 ~cooldown_s:1e9 "worker-b" in
  (* Restart storm: interleaved crash-loops burn both restart budgets. *)
  List.iter
    (fun _delay ->
      Breaker.record_failure a ~reason:"crash loop";
      Breaker.record_failure b ~reason:"crash loop")
    delays;
  Alcotest.(check bool) "a escalated open" true (Breaker.state a = Breaker.Open);
  Alcotest.(check bool) "b escalated open" true (Breaker.state b = Breaker.Open);
  Breaker.set_cooldown a 0.0;
  Breaker.set_cooldown b 0.0;
  (* A claims its probe slot first... *)
  Alcotest.(check bool) "a admits its probe" true (Breaker.allow a);
  Alcotest.(check bool) "a probe in flight" true (Breaker.probing a);
  (* ...which must not starve B's slot, nor open A's to a second caller. *)
  Alcotest.(check bool) "b admits its probe despite a's" true (Breaker.allow b);
  Alcotest.(check bool) "a rejects a second probe" false (Breaker.allow a);
  Alcotest.(check bool) "b rejects a second probe" false (Breaker.allow b);
  (* A's probe dies: only A re-opens; B's probe is still live. *)
  Breaker.record_failure a ~reason:"probe died";
  Alcotest.(check bool) "a re-opened alone" true (Breaker.state a = Breaker.Open);
  Alcotest.(check bool) "b probe survived a's failure" true (Breaker.probing b);
  Breaker.record_success b;
  Alcotest.(check bool) "b closed on its own probe" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed b admits traffic freely" true
    (Breaker.allow b && Breaker.allow b);
  (* A pays another capped backoff round, then converges too. *)
  check (Alcotest.float 1e-9) "a still at the capped delay" policy.max_delay_ms
    (delay_for (List.length delays + 3));
  Breaker.set_cooldown a 0.0;
  Alcotest.(check bool) "a re-probes after cooldown" true (Breaker.allow a);
  Breaker.record_success a;
  Alcotest.(check bool) "a closed independently" true
    (Breaker.state a = Breaker.Closed)

(* A reference model of the breaker state machine, checked against the
   implementation over random operation sequences: the breaker must
   track the model exactly (no invalid transition is reachable), and
   once the cooldown elapses it must always be able to re-close via a
   single successful probe. Threshold 2; the cooldown starts effectively
   infinite and an explicit "elapse" operation drops it to zero (time
   is modeled as a sticky bit — before the drop nothing has elapsed,
   after it everything has). *)
type breaker_model = {
  mutable m_state : Breaker.state;
  mutable m_failures : int;
  mutable m_probe : bool;
  mutable m_elapsed : bool;
}

let prop_breaker_matches_model =
  QCheck.Test.make ~name:"breaker follows the reference model" ~count:500
    QCheck.(list (int_bound 4))
    (fun ops ->
      let b = Breaker.create ~failure_threshold:2 ~cooldown_s:1e9 "model" in
      let m =
        { m_state = Breaker.Closed; m_failures = 0; m_probe = false; m_elapsed = false }
      in
      let model_trip () =
        m.m_state <- Breaker.Open;
        m.m_probe <- false
      in
      let apply op =
        match op with
        | 0 ->
            let expect =
              match m.m_state with
              | Breaker.Closed -> true
              | Breaker.Half_open ->
                  if m.m_probe then false
                  else begin
                    m.m_probe <- true;
                    true
                  end
              | Breaker.Open ->
                  if m.m_elapsed then begin
                    m.m_state <- Breaker.Half_open;
                    m.m_probe <- true;
                    true
                  end
                  else false
            in
            Breaker.allow b = expect
        | 1 ->
            Breaker.record_success b;
            m.m_state <- Breaker.Closed;
            m.m_failures <- 0;
            m.m_probe <- false;
            true
        | 2 ->
            Breaker.record_failure b ~reason:"model";
            m.m_failures <- m.m_failures + 1;
            (match m.m_state with
            | Breaker.Half_open -> model_trip ()
            | Breaker.Closed -> if m.m_failures >= 2 then model_trip ()
            | Breaker.Open -> ());
            true
        | 3 ->
            Breaker.trip b ~reason:"model";
            model_trip ();
            true
        | _ ->
            Breaker.set_cooldown b 0.0;
            m.m_elapsed <- true;
            true
      in
      let agrees () =
        Breaker.state b = m.m_state
        && Breaker.probing b = (m.m_state = Breaker.Half_open && m.m_probe)
        && Breaker.ready b
           = (match m.m_state with
             | Breaker.Closed -> true
             | Breaker.Half_open -> not m.m_probe
             | Breaker.Open -> m.m_elapsed)
      in
      let ok = List.for_all (fun op -> apply op && agrees ()) ops in
      (* Liveness: whatever state the sequence left behind, an elapsed
         cooldown plus one successful probe must re-close the circuit. *)
      Breaker.set_cooldown b 0.0;
      let reclosed =
        (match Breaker.state b with
        | Breaker.Closed -> true
        | Breaker.Open -> Breaker.allow b && Breaker.state b = Breaker.Half_open
        | Breaker.Half_open -> Breaker.probing b || Breaker.allow b)
        &&
        (Breaker.record_success b;
         Breaker.state b = Breaker.Closed && Breaker.allow b)
      in
      ok && reclosed)

(* ---- engine helpers ---- *)

let nexi = "//article//sec[about(., information retrieval)]"

let sig_of answers =
  List.map
    (fun (e : Trex.Answer.entry) ->
      (e.element.Trex.Types.docid, e.element.Trex.Types.endpos))
    answers

let sig_testable = Alcotest.(list (pair int int))

let build_collection dir ~docs ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count:docs ~seed () in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
  (env, engine)

(* ---- strategy fallback after corruption ---- *)

let header_size = 128

let flip_bit_in_file path ~off ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit land 7))));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_fallback_on_corrupt_rpls () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:20 ~seed:42 in
  ignore (Trex.materialize engine nexi);
  let merge_baseline =
    Trex.query engine ~k:5 ~method_:Trex.Strategy.Merge_method nexi
  in
  Trex.Env.close env;
  (* Damage every page of the RPL lists table on disk (whichever leaf a
     cursor lands on, the checksum fails); the catalogs stay intact, so
     planning still believes TA is available until the breaker trips. *)
  let rpls = Filename.concat dir "rpls.tbl" in
  let len = (Unix.stat rpls).Unix.st_size in
  let page_size = 8192 in
  let off = ref (header_size + 17) in
  while !off < len do
    flip_bit_in_file rpls ~off:!off ~bit:3;
    off := !off + page_size
  done;
  let env2 = Trex.Env.on_disk dir in
  let engine2 = Trex.attach ~env:env2 () in
  let fb0 = metric "resilience.fallbacks" in
  let outcome = Trex.query engine2 ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
  Alcotest.(check bool) "TA was abandoned" true
    (List.exists
       (fun (f : Trex.Strategy.failover) -> f.failed = Trex.Strategy.Ta_method)
       outcome.fallbacks);
  Alcotest.(check bool) "answered by another method" true
    (outcome.strategy.method_used <> Trex.Strategy.Ta_method);
  check sig_testable "fallback answers equal the fault-free ones"
    (sig_of merge_baseline.strategy.answers)
    (sig_of outcome.strategy.answers);
  Alcotest.(check bool) "not tagged degraded (answers are complete)" false
    outcome.degraded;
  Alcotest.(check bool) "rpls breaker is open" false
    (Env.table_available env2 "rpls");
  Alcotest.(check bool) "fallback counted" true
    (metric "resilience.fallbacks" - fb0 > 0);
  (* Planning now routes around TA without another failure. *)
  let again = Trex.query engine2 ~k:5 nexi in
  check (Alcotest.list Alcotest.unit) "no new failovers" []
    (List.map (fun (_ : Trex.Strategy.failover) -> ()) again.fallbacks);
  check sig_testable "replanned answers still exact"
    (sig_of merge_baseline.strategy.answers)
    (sig_of again.strategy.answers);
  Trex.Env.close env2

(* ---- degraded queries ---- *)

let test_deadline_degrades () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:30 ~seed:7 in
  let exact = Trex.query engine ~k:1000 ~method_:Trex.Strategy.Era_method nexi in
  let exact_scores =
    List.map
      (fun (e : Trex.Answer.entry) ->
        ((e.element.Trex.Types.docid, e.element.Trex.Types.endpos), e.score))
      exact.strategy.answers
  in
  let d0 = metric "resilience.degraded_runs" in
  let outcome = Trex.query engine ~k:5 ~deadline_ms:0.0 nexi in
  Alcotest.(check bool) "tagged degraded" true outcome.degraded;
  (* Sound prefix: every salvaged answer is a real answer and its
     partial score never exceeds the exact one. *)
  List.iter
    (fun (e : Trex.Answer.entry) ->
      let id = (e.element.Trex.Types.docid, e.element.Trex.Types.endpos) in
      match List.assoc_opt id exact_scores with
      | None -> Alcotest.fail "degraded run fabricated an answer"
      | Some exact_score ->
          Alcotest.(check bool) "partial score is a lower bound" true
            (e.score <= exact_score +. 1e-9))
    outcome.strategy.answers;
  Alcotest.(check bool) "degraded run counted" true
    (metric "resilience.degraded_runs" - d0 > 0);
  (* Without limits the same query is exact and untagged. *)
  let full = Trex.query engine ~k:5 nexi in
  Alcotest.(check bool) "unlimited is not degraded" false full.degraded;
  Trex.Env.close env

(* ---- Stopclock.with_paused is exception-safe (ITA invariant) ---- *)

let test_with_paused_exception_safe () =
  let c = Stopclock.create () in
  Alcotest.(check bool) "starts running" true (Stopclock.is_running c);
  let v = Stopclock.with_paused c (fun () -> 9) in
  check Alcotest.int "passes the value through" 9 v;
  Alcotest.(check bool) "resumed after return" true (Stopclock.is_running c);
  (match Stopclock.with_paused c (fun () -> failwith "abort mid-measure") with
  | _ -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "resumed after raise" true (Stopclock.is_running c);
  let e0 = Stopclock.elapsed c in
  let fin = Unix.gettimeofday () +. 0.005 in
  while Unix.gettimeofday () < fin do
    ()
  done;
  Alcotest.(check bool) "clock accumulates again after the raise" true
    (Stopclock.elapsed c > e0)

(* ---- autopilot healing ---- *)

let test_autopilot_heal_rebuilds () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:20 ~seed:42 in
  ignore (Trex.materialize engine nexi);
  let ta_baseline = Trex.query engine ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
  let pilot =
    Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
      ~budget:max_int ()
  in
  Trex.Autopilot.record pilot ~nexi ~k:5;
  Env.trip_table env "rpls" ~reason:"injected for the heal test";
  (* Inside cooldown the pilot must only report, not touch the table. *)
  (match Trex.Autopilot.maybe_heal pilot with
  | [ { Trex.Autopilot.table = "rpls"; action = Trex.Autopilot.Cooling_down } ] ->
      ()
  | _ -> Alcotest.fail "expected a single cooling-down report");
  Alcotest.(check bool) "still quarantined" false (Env.table_available env "rpls");
  Breaker.set_cooldown (Env.breaker env "rpls") 0.0;
  let r0 = metric "resilience.rebuilds" in
  (match Trex.Autopilot.maybe_heal pilot with
  | [ { Trex.Autopilot.table = "rpls"; action = Trex.Autopilot.Rebuilt { tables; _ } } ]
    ->
      (* the catalog is condemned with its lists — pair quarantine *)
      check
        (Alcotest.list Alcotest.string)
        "pair quarantined together" [ "rpls"; "rpl_catalog" ]
        (List.sort (fun a b -> compare (String.length a) (String.length b)) tables)
  | _ -> Alcotest.fail "expected a single rebuilt report");
  check Alcotest.int "rebuild counted" 1 (metric "resilience.rebuilds" - r0);
  Alcotest.(check bool) "breaker closed" true (Env.table_available env "rpls");
  check (Alcotest.list Alcotest.unit) "nothing left to heal" []
    (List.map (fun _ -> ()) (Trex.Autopilot.maybe_heal pilot));
  (* The rebuilt lists serve TA exactly as before the damage. *)
  let after = Trex.query engine ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
  check sig_testable "TA answers restored"
    (sig_of ta_baseline.strategy.answers)
    (sig_of after.strategy.answers);
  Alcotest.(check bool) "no failover needed" true (after.fallbacks = []);
  Trex.Env.close env

(* With a plan, a heal rebuilds the plan's lists of the condemned kind
   and nothing else: whichever method the measurement picked for each
   query, the RPL catalog lists exactly what it listed before the
   trip. *)
let test_autopilot_heal_keeps_plan () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:20 ~seed:42 in
  let pilot =
    Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
      ~budget:max_int ~min_observations:2 ()
  in
  List.iter
    (fun nexi -> Trex.Autopilot.record pilot ~nexi ~k:5)
    [ nexi; "//article[about(., music)]" ];
  (match Trex.Autopilot.maybe_replan pilot with
  | Trex.Autopilot.Replanned _ -> ()
  | v ->
      Alcotest.failf "expected Replanned, got %s"
        (Format.asprintf "%a" Trex.Autopilot.pp_verdict v));
  let rpl_pairs () =
    List.sort compare
      (List.map
         (fun (term, sid, _, _) -> (term, sid))
         (Trex.Rpl.catalog (Trex.index engine) Trex.Rpl.Rpl))
  in
  let planned = rpl_pairs () in
  Env.trip_table env "rpls" ~reason:"injected for the plan-heal test";
  Breaker.set_cooldown (Env.breaker env "rpls") 0.0;
  (match Trex.Autopilot.maybe_heal pilot with
  | [ { Trex.Autopilot.action = Trex.Autopilot.Rebuilt _; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single rebuilt report");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "the plan's RPLs, no more" planned (rpl_pairs ());
  Env.close env

(* A heal with nothing to rebuild (no plan, no observed query) still
   leaves a pair its probe can verify: the empty tables are made
   durable before they are read back. *)
let test_autopilot_heal_nothing_to_rebuild () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:8 ~seed:42 in
  ignore (Trex.materialize engine nexi);
  let pilot =
    Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
      ~budget:max_int ()
  in
  Env.trip_table env "rpls" ~reason:"injected for the empty-heal test";
  Breaker.set_cooldown (Env.breaker env "rpls") 0.0;
  (match Trex.Autopilot.maybe_heal pilot with
  | [ { Trex.Autopilot.action = Trex.Autopilot.Rebuilt { entries_written = 0; _ }; _ } ] ->
      ()
  | l ->
      Alcotest.failf "expected one empty rebuild, got [%s]"
        (String.concat "; " (List.map (Format.asprintf "%a" Trex.Autopilot.pp_heal) l)));
  Alcotest.(check bool) "breaker closed" true (Env.table_available env "rpls");
  Env.close env

(* ---- seeded fault soak ---- *)

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 4

let soak_queries =
  [ nexi; "//article//p[about(., database systems)]" ]

let soak_methods =
  [
    None;
    Some Trex.Strategy.Era_method;
    Some Trex.Strategy.Ta_method;
    Some Trex.Strategy.Merge_method;
  ]

(* Flip one bit inside page [page] of a table file, so the page's CRC
   fails on its next physical read. [page] chooses among the file's
   pages given its committed root and page count. *)
let damage_page path ~page =
  let p = Pager.open_file path in
  let victim = page ~root:(Pager.get_root p) ~pages:(Pager.page_count p) in
  let stride = Pager.page_size p + 4 in
  Pager.abort p;
  flip_bit_in_file path ~off:(header_size + (victim * stride) + 17) ~bit:3

(* The tables a soak seed damages: the self-manager's redundant lists
   (each can be dropped and rebuilt), and the base tables ERA reads. *)
let redundant_tables = [ "rpls"; "erpls"; "rpl_catalog"; "erpl_catalog" ]
let base_tables = [ "elements"; "postings" ]

type soak_counts = {
  exact : int;
  degraded : int;
  typed_failures : int;
  failovers : int;
}

let run_soak_seed seed =
  let dir = temp_dir () in
  (* Build + materialize, then collect fault-free baselines per
     (query, method) and the exact full answer set per query. *)
  let env, engine = build_collection dir ~docs:12 ~seed:(1000 + seed) in
  List.iter (fun q -> ignore (Trex.materialize engine q)) soak_queries;
  let baselines = Hashtbl.create 16 in
  let exact_scores = Hashtbl.create 16 in
  List.iter
    (fun q ->
      List.iter
        (fun m ->
          let o = Trex.query engine ~k:5 ?method_:m q in
          Hashtbl.replace baselines (q, o.strategy.method_used)
            (sig_of o.strategy.answers))
        soak_methods;
      (* ERA with an unbounded k yields the exact full answer set. *)
      let exact = Trex.query engine ~k:1_000_000 ~method_:Trex.Strategy.Era_method q in
      Hashtbl.replace exact_scores q
        (List.map
           (fun (e : Trex.Answer.entry) ->
             ((e.element.Trex.Types.docid, e.element.Trex.Types.endpos), e.score))
           exact.strategy.answers))
    soak_queries;
  Trex.Env.close env;
  (* Seeded page damage on disk. Every seed damages one page of a
     redundant table: TA and Merge fail over and the answer stays
     exact. Odd seeds also damage the root page of a base table, which
     ERA cannot route around: it raises a typed Corruption. *)
  let rng = Trex_util.Prng.create (seed * 7919) in
  let pick l = List.nth l (Trex_util.Prng.int rng (List.length l)) in
  let file name = Filename.concat dir (name ^ ".tbl") in
  damage_page
    (file (pick redundant_tables))
    ~page:(fun ~root:_ ~pages -> Trex_util.Prng.int rng pages);
  if seed mod 2 = 1 then
    damage_page (file (pick base_tables)) ~page:(fun ~root ~pages:_ -> root);
  (* Fresh attach with a small cache so queries really hit the disk. *)
  let env2 = Trex.Env.on_disk ~cache_pages:16 dir in
  let engine2 = Trex.attach ~env:env2 () in
  let trips0 = metric "resilience.breaker_trips" in
  let exact_runs = ref 0
  and degraded_runs = ref 0
  and typed_failures = ref 0
  and failovers = ref 0 in
  List.iter
    (fun q ->
      let scores = Hashtbl.find exact_scores q in
      List.iter
        (fun (m, page_budget, deadline_ms) ->
          match Trex.query engine2 ~k:5 ?method_:m ?page_budget ?deadline_ms q with
          | outcome ->
              if outcome.fallbacks <> [] then incr failovers;
              if outcome.degraded then begin
                incr degraded_runs;
                List.iter
                  (fun (e : Trex.Answer.entry) ->
                    let id =
                      (e.element.Trex.Types.docid, e.element.Trex.Types.endpos)
                    in
                    match List.assoc_opt id scores with
                    | None ->
                        Alcotest.failf "seed %d: degraded run fabricated %d/%d"
                          seed (fst id) (snd id)
                    | Some exact_score ->
                        Alcotest.(check bool)
                          "degraded score is a lower bound" true
                          (e.score <= exact_score +. 1e-9))
                  outcome.strategy.answers
              end
              else begin
                incr exact_runs;
                (* Untagged results must be bit-identical to the
                   fault-free run of whatever method answered. *)
                match Hashtbl.find_opt baselines (q, outcome.strategy.method_used) with
                | Some expected ->
                    check sig_testable
                      (Printf.sprintf "seed %d: exact answers (%s)" seed
                         (Trex.Strategy.method_to_string
                            outcome.strategy.method_used))
                      expected
                      (sig_of outcome.strategy.answers)
                | None -> Alcotest.failf "seed %d: no baseline method" seed
              end
          | exception Pager.Corruption _ -> incr typed_failures)
        (List.map (fun m -> (m, None, None)) soak_methods
        @ [
            (* a page budget binds only on cache misses; the zero
               deadline forces the degraded path deterministically *)
            (Some Trex.Strategy.Era_method, Some 3, None);
            (Some Trex.Strategy.Era_method, None, Some 0.0);
          ]))
    soak_queries;
  (* Consistency between what happened and what health would report:
     breakers opened iff trips were counted, and a failover implies an
     open breaker behind it. *)
  let open_breakers =
    List.filter (fun (_, s) -> s <> Breaker.Closed) (Env.breaker_states env2)
  in
  let trips = metric "resilience.breaker_trips" - trips0 in
  Alcotest.(check bool) "trips counted iff breakers opened" true
    (trips > 0 = (open_breakers <> []));
  if !failovers > 0 then
    Alcotest.(check bool) "failover implies an open breaker" true
      (open_breakers <> []);
  Trex.Env.close env2;
  Printf.printf
    "soak seed %d: %d exact, %d degraded, %d typed failures, %d failovers, %d trips\n%!"
    seed !exact_runs !degraded_runs !typed_failures !failovers trips;
  (* The contract: every run fell in one of the three buckets; the
     checks above already failed the test otherwise. Damage confined
     to redundant tables is always routed around. *)
  if seed mod 2 = 0 then
    check Alcotest.int
      (Printf.sprintf "seed %d: redundant damage raises nothing" seed)
      0 !typed_failures;
  {
    exact = !exact_runs;
    degraded = !degraded_runs;
    typed_failures = !typed_failures;
    failovers = !failovers;
  }

(* At least two seeds run, so both the even (redundant damage only) and
   the odd (base damage too) schedule are covered. *)
let test_soak () =
  let runs = List.init (max 2 (soak_seeds ())) (fun i -> run_soak_seed (i + 1)) in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 runs in
  Alcotest.(check bool) "some runs exact" true (total (fun c -> c.exact) > 0);
  Alcotest.(check bool) "the soak reached the degraded bucket" true
    (total (fun c -> c.degraded) > 0);
  Alcotest.(check bool) "some run failed over" true
    (total (fun c -> c.failovers) > 0);
  Alcotest.(check bool) "some run raised a typed error" true
    (total (fun c -> c.typed_failures) > 0)

let () =
  Alcotest.run "trex_resilience"
    [
      ( "guard",
        [
          Alcotest.test_case "unlimited never expires" `Quick test_guard_unlimited;
          Alcotest.test_case "deadline" `Quick test_guard_deadline;
          Alcotest.test_case "page budget" `Quick test_guard_page_budget;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "decorrelated jitter" `Quick test_decorrelated_jitter;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "probe slots independent under restart storm"
            `Quick test_probe_slots_independent;
          QCheck_alcotest.to_alcotest prop_breaker_matches_model;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "fallback on corrupt RPLs" `Quick
            test_fallback_on_corrupt_rpls;
        ] );
      ( "degradation",
        [ Alcotest.test_case "deadline degrades soundly" `Quick test_deadline_degrades ] );
      ( "stopclock",
        [
          Alcotest.test_case "with_paused exception-safe" `Quick
            test_with_paused_exception_safe;
        ] );
      ( "autopilot",
        [
          Alcotest.test_case "heal rebuilds quarantined pair" `Quick
            test_autopilot_heal_rebuilds;
          Alcotest.test_case "heal keeps the plan's lists" `Quick
            test_autopilot_heal_keeps_plan;
          Alcotest.test_case "heal with nothing to rebuild" `Quick
            test_autopilot_heal_nothing_to_rebuild;
        ] );
      ("soak", [ Alcotest.test_case "seeded fault schedules" `Slow test_soak ]);
    ]
