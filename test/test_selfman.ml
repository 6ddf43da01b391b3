(* Tests for trex_selfman: workload validation, greedy vs optimal index
   selection, the 2-approximation guarantee, and applying plans. *)

module Workload = Trex_selfman.Workload
module Cost = Trex_selfman.Cost
module Advisor = Trex_selfman.Advisor
module Rpl = Trex_topk.Rpl
module Ta = Trex_topk.Ta
module Merge = Trex_topk.Merge
module Env = Trex_storage.Env
module Summary = Trex_summary.Summary
module Index = Trex_invindex.Index
module Prng = Trex_util.Prng

let check = Alcotest.check

(* ---- workload ---- *)

let q id f = { Workload.id; nexi = "//t[about(., t)]"; k = 10; frequency = f }

let test_workload_valid () =
  let w = Workload.create [ q "a" 0.25; q "b" 0.75 ] in
  check Alcotest.int "two queries" 2 (List.length (Workload.queries w));
  Alcotest.(check bool) "find" true (Workload.find w "a" <> None);
  Alcotest.(check bool) "find missing" true (Workload.find w "zz" = None)

let test_workload_invalid () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (raises (fun () -> Workload.create []));
  Alcotest.(check bool) "bad sum" true
    (raises (fun () -> Workload.create [ q "a" 0.5; q "b" 0.1 ]));
  Alcotest.(check bool) "duplicate ids" true
    (raises (fun () -> Workload.create [ q "a" 0.5; q "a" 0.5 ]));
  Alcotest.(check bool) "zero frequency" true
    (raises (fun () -> Workload.create [ q "a" 0.0; q "b" 1.0 ]));
  Alcotest.(check bool) "bad k" true
    (raises (fun () ->
         Workload.create [ { (q "a" 1.0) with Workload.k = 0 } ]))

let test_workload_unweighted () =
  let w = Workload.of_unweighted [ ("a", "//t[about(., t)]", 5); ("b", "//u[about(., u)]", 5) ] in
  List.iter
    (fun (qq : Workload.query) ->
      check (Alcotest.float 1e-9) "uniform" 0.5 qq.frequency)
    (Workload.queries w)

(* ---- synthetic profiles ---- *)

let profile ~id ~f ~era ~merge ~ta ~rpl ~erpl =
  Cost.make ~id ~frequency:f ~time_era:era ~time_merge:merge ~time_ta:ta
    ~rpl_lists:rpl ~erpl_lists:erpl

let test_savings () =
  let p = profile ~id:"q" ~f:0.5 ~era:10.0 ~merge:2.0 ~ta:4.0 ~rpl:[] ~erpl:[] in
  check (Alcotest.float 1e-9) "merge saving" 4.0 (Cost.saving_merge p);
  check (Alcotest.float 1e-9) "ta saving" 3.0 (Cost.saving_ta p);
  (* A method slower than ERA saves nothing. *)
  let p2 = profile ~id:"q2" ~f:1.0 ~era:1.0 ~merge:5.0 ~ta:0.5 ~rpl:[] ~erpl:[] in
  check (Alcotest.float 1e-9) "negative clipped" 0.0 (Cost.saving_merge p2)

(* ---- advisor on hand-built instances ---- *)

let two_queries =
  [
    (* Q1: huge merge win, costs 100 bytes of ERPLs. *)
    profile ~id:"q1" ~f:0.5 ~era:10.0 ~merge:1.0 ~ta:8.0
      ~rpl:[ ("t1", 1, 100) ]
      ~erpl:[ ("t1", 1, 100) ];
    (* Q2: moderate TA win, costs 50 bytes of RPLs. *)
    profile ~id:"q2" ~f:0.5 ~era:6.0 ~merge:5.5 ~ta:2.0
      ~rpl:[ ("t2", 2, 50) ]
      ~erpl:[ ("t2", 2, 50) ];
  ]

let decision plan id = List.assoc id plan.Advisor.decisions

let test_greedy_fits_budget () =
  let plan = Advisor.greedy ~budget:120 two_queries in
  Alcotest.(check bool) "within budget" true (plan.bytes_used <= 120);
  (* 120 bytes cannot hold both (150); the ratio favours q2's TA
     (0.5*4/50 = 0.04) over q1's Merge (0.5*9/100 = 0.045)... q1 wins,
     then q2 no longer fits. *)
  check Alcotest.string "q1 gets ERPL" "ERPL (Merge)"
    (Advisor.choice_to_string (decision plan "q1"));
  check Alcotest.string "q2 unsupported" "none"
    (Advisor.choice_to_string (decision plan "q2"))

let test_greedy_unlimited_budget_takes_best_of_each () =
  let plan = Advisor.greedy ~budget:1_000_000 two_queries in
  check Alcotest.string "q1 merge" "ERPL (Merge)"
    (Advisor.choice_to_string (decision plan "q1"));
  check Alcotest.string "q2 ta" "RPL (TA)"
    (Advisor.choice_to_string (decision plan "q2"));
  check (Alcotest.float 1e-9) "saving" (0.5 *. 9.0 +. 0.5 *. 4.0)
    plan.expected_saving

let test_zero_budget () =
  let plan = Advisor.greedy ~budget:0 two_queries in
  check Alcotest.int "nothing stored" 0 plan.bytes_used;
  check (Alcotest.float 0.0) "no saving" 0.0 plan.expected_saving;
  let opt = Advisor.branch_and_bound ~budget:0 two_queries in
  check (Alcotest.float 0.0) "optimal also zero" 0.0 opt.expected_saving

let test_shared_lists_counted_once () =
  (* Both queries need the same (term, sid) ERPL: storing it once serves
     both, so the union is 100 bytes, not 200. *)
  let shared =
    [
      profile ~id:"a" ~f:0.5 ~era:5.0 ~merge:1.0 ~ta:5.0
        ~rpl:[] ~erpl:[ ("shared", 1, 100) ];
      profile ~id:"b" ~f:0.5 ~era:5.0 ~merge:1.0 ~ta:5.0
        ~rpl:[] ~erpl:[ ("shared", 1, 100) ];
    ]
  in
  let plan = Advisor.greedy ~budget:100 shared in
  check Alcotest.int "union bytes" 100 plan.bytes_used;
  check (Alcotest.float 1e-9) "both supported" 4.0 plan.expected_saving;
  let opt = Advisor.branch_and_bound ~budget:100 shared in
  check (Alcotest.float 1e-9) "optimal agrees" 4.0 opt.expected_saving

let test_branch_and_bound_beats_greedy_when_ratio_misleads () =
  (* Classic knapsack trap: greedy's best ratio choice blocks the
     optimal pair. *)
  let trap =
    [
      profile ~id:"big" ~f:0.4 ~era:11.0 ~merge:1.0 ~ta:11.0
        ~rpl:[] ~erpl:[ ("t", 1, 60) ];
      profile ~id:"s1" ~f:0.3 ~era:11.0 ~merge:1.0 ~ta:11.0
        ~rpl:[] ~erpl:[ ("u", 2, 50) ];
      profile ~id:"s2" ~f:0.3 ~era:11.0 ~merge:1.0 ~ta:11.0
        ~rpl:[] ~erpl:[ ("v", 3, 50) ];
    ]
  in
  (* savings: big = 4.0 (ratio .0667), s1 = s2 = 3.0 (ratio .06).
     budget 100: greedy takes big (4.0), optimal takes s1+s2 (6.0). *)
  let g = Advisor.greedy ~budget:100 trap in
  let o = Advisor.branch_and_bound ~budget:100 trap in
  check (Alcotest.float 1e-9) "greedy" 4.0 g.expected_saving;
  check (Alcotest.float 1e-9) "optimal" 6.0 o.expected_saving;
  Alcotest.(check bool) "2-approx holds here" true
    (o.expected_saving <= 2.0 *. g.expected_saving +. 1e-9)

(* Brute force reference for small instances. *)
let brute_force ~budget profiles =
  let rec go acc = function
    | [] -> [ List.rev acc ]
    | (p : Cost.profile) :: rest ->
        List.concat_map
          (fun c -> go ((p.id, c) :: acc) rest)
          [ Advisor.No_index; Advisor.Use_erpl; Advisor.Use_rpl ]
  in
  let assignments = go [] profiles in
  List.fold_left
    (fun best decisions ->
      if Advisor.plan_bytes profiles decisions > budget then best
      else
        let saving = Advisor.plan_saving profiles decisions in
        match best with
        | Some (bs, _) when bs >= saving -> best
        | _ -> Some (saving, decisions))
    None assignments
  |> Option.get |> fst

let random_instance rng =
  let n = 2 + Prng.int rng 4 in
  let freqs = Array.init n (fun _ -> 0.05 +. Prng.float rng 1.0) in
  let total = Array.fold_left ( +. ) 0.0 freqs in
  (* Shared lists must have one canonical size per (term, sid) key, or
     byte accounting would depend on discovery order. *)
  let shared_pool = [| ("s1", 40); ("s2", 60); ("s3", 80) |] in
  List.init n (fun i ->
      let lists kind_tag =
        List.init
          (1 + Prng.int rng 2)
          (fun j ->
            (* Mix shared and private lists. *)
            if Prng.bool rng then
              let name, bytes = Prng.pick rng shared_pool in
              (name, 0, bytes)
            else (Printf.sprintf "%s-p%d-%d" kind_tag i j, i, 10 + Prng.int rng 90))
      in
      let era = 5.0 +. Prng.float rng 10.0 in
      profile
        ~id:(Printf.sprintf "q%d" i)
        ~f:(freqs.(i) /. total)
        ~era
        ~merge:(Prng.float rng era)
        ~ta:(Prng.float rng era)
        ~rpl:(lists "rpl") ~erpl:(lists "erpl"))

let prop_bnb_is_optimal =
  QCheck.Test.make ~name:"branch-and-bound equals brute force" ~count:60 QCheck.int
    (fun seed ->
      let rng = Prng.create seed in
      let profiles = random_instance rng in
      let budget = 50 + Prng.int rng 300 in
      let bnb = Advisor.branch_and_bound ~budget profiles in
      let brute = brute_force ~budget profiles in
      Float.abs (bnb.expected_saving -. brute) < 1e-9
      && bnb.bytes_used <= budget)

(* Theorem 4.2's model (like the paper's LP in §4.1) accounts each
   query's index sizes independently — no cross-query sharing — so the
   2-approximation property is tested on instances with private lists
   only. With sharing, list sizes become a submodular cost and only the
   weaker sanity property below is claimed. *)
let random_private_instance rng =
  let n = 2 + Prng.int rng 4 in
  let freqs = Array.init n (fun _ -> 0.05 +. Prng.float rng 1.0) in
  let total = Array.fold_left ( +. ) 0.0 freqs in
  List.init n (fun i ->
      let lists kind_tag =
        List.init
          (1 + Prng.int rng 2)
          (fun j -> (Printf.sprintf "%s-p%d-%d" kind_tag i j, i, 10 + Prng.int rng 150))
      in
      let era = 5.0 +. Prng.float rng 10.0 in
      profile
        ~id:(Printf.sprintf "q%d" i)
        ~f:(freqs.(i) /. total)
        ~era
        ~merge:(Prng.float rng era)
        ~ta:(Prng.float rng era)
        ~rpl:(lists "rpl") ~erpl:(lists "erpl"))

let prop_greedy_two_approximation =
  QCheck.Test.make ~name:"greedy is a 2-approximation (Theorem 4.2)" ~count:200
    QCheck.int (fun seed ->
      let rng = Prng.create seed in
      let profiles = random_private_instance rng in
      let budget = 50 + Prng.int rng 400 in
      let g = Advisor.greedy ~budget profiles in
      let o = Advisor.branch_and_bound ~budget profiles in
      g.bytes_used <= budget
      && o.expected_saving <= (2.0 *. g.expected_saving) +. 1e-9)

(* A replayed counterexample: a greedy that took a query's cheap option
   first and could not switch it to the query's other option saved
   4.348 in 101 bytes against the optimum's 8.962 in 318 (budget 411). *)
let test_greedy_switches_option () =
  let rng = Prng.create (-2825397586855324594) in
  let profiles = random_private_instance rng in
  let budget = 50 + Prng.int rng 400 in
  check Alcotest.int "budget" 411 budget;
  let g = Advisor.greedy ~budget profiles in
  let o = Advisor.branch_and_bound ~budget profiles in
  check (Alcotest.float 1e-3) "optimum" 8.962 o.expected_saving;
  Alcotest.(check bool) "within budget" true (g.bytes_used <= budget);
  Alcotest.(check bool) "2-approximation" true
    (o.expected_saving <= (2.0 *. g.expected_saving) +. 1e-9)

let prop_greedy_never_beats_optimal =
  QCheck.Test.make ~name:"greedy never exceeds optimal (shared lists)" ~count:100
    QCheck.int (fun seed ->
      let rng = Prng.create seed in
      let profiles = random_instance rng in
      let budget = 50 + Prng.int rng 300 in
      let g = Advisor.greedy ~budget profiles in
      let o = Advisor.branch_and_bound ~budget profiles in
      g.bytes_used <= budget
      && g.expected_saving <= o.expected_saving +. 1e-9)

let prop_greedy_within_budget_and_consistent =
  QCheck.Test.make ~name:"greedy plans are internally consistent" ~count:100 QCheck.int
    (fun seed ->
      let rng = Prng.create seed in
      let profiles = random_instance rng in
      let budget = Prng.int rng 400 in
      let g = Advisor.greedy ~budget profiles in
      g.bytes_used <= budget
      && Float.abs
           (Advisor.plan_saving profiles g.decisions -. g.expected_saving)
         < 1e-9
      && Advisor.plan_bytes profiles g.decisions = g.bytes_used)

let test_measure_with_prefix_rpls () =
  let coll = Trex_corpus.Gen.ieee ~doc_count:25 ~seed:13 () in
  let env = Env.in_memory () in
  let summary = Summary.create ~alias:coll.alias Summary.Incoming in
  let index = Index.build ~env ~summary (coll.docs ()) in
  let q =
    {
      Workload.id = "p";
      nexi = "//sec[about(., information retrieval)]";
      k = 3;
      frequency = 1.0;
    }
  in
  let sids, terms = Workload.translate index q.nexi in
  let scoring = Trex_scoring.Scorer.default in
  (* Full-list profile first (on a fresh index copy semantics: measure
     rebuilds lists as needed). *)
  let full = Cost.measure index ~scoring ~runs:1 q in
  Alcotest.(check bool) "no prefix recorded" true (full.rpl_prefix = None);
  let prefixed = Cost.measure index ~scoring ~runs:1 ~prefix_rpls:true q in
  let bytes p = List.fold_left (fun a (_, b) -> a + b) 0 p.Cost.rpl_lists in
  (match prefixed.rpl_prefix with
  | Some depth ->
      Alcotest.(check bool) "positive depth" true (depth > 0);
      Alcotest.(check bool) "S_RPL shrinks" true (bytes prefixed < bytes full);
      (* TA still answers the workload's k on the truncated lists. *)
      let answers, _ = Ta.run index ~sids ~terms ~k:q.k () in
      check Alcotest.int "k answers" q.k (List.length answers)
  | None ->
      (* Legitimate when the lists are too short to save anything. *)
      Alcotest.(check bool) "full bytes unchanged" true (bytes prefixed = bytes full))

(* ---- end-to-end: measure + plan + apply on a live index ---- *)

let test_measure_and_apply () =
  let coll = Trex_corpus.Gen.ieee ~doc_count:25 ~seed:3 () in
  let env = Env.in_memory () in
  let summary = Summary.create ~alias:coll.alias Summary.Incoming in
  let index = Index.build ~env ~summary (coll.docs ()) in
  let w =
    Workload.create
      [
        {
          Workload.id = "w1";
          nexi = "//sec[about(., information retrieval)]";
          k = 5;
          frequency = 0.6;
        };
        { Workload.id = "w2"; nexi = "//article[about(., music)]"; k = 5; frequency = 0.4 };
      ]
  in
  let scoring = Trex_scoring.Scorer.default in
  let profiles =
    List.map (fun q -> Cost.measure index ~scoring ~runs:1 q) (Workload.queries w)
  in
  check Alcotest.int "profiles" 2 (List.length profiles);
  List.iter
    (fun (p : Cost.profile) ->
      Alcotest.(check bool) "times non-negative" true
        (p.time_era >= 0.0 && p.time_merge >= 0.0 && p.time_ta >= 0.0);
      Alcotest.(check bool) "lists profiled" true (p.rpl_lists <> []))
    profiles;
  (* Drop everything measured, then apply a fresh greedy plan and check
     the chosen methods actually run. *)
  List.iter
    (fun (term, sid, _, _) -> Rpl.drop index Rpl.Rpl ~term ~sid)
    (Rpl.catalog index Rpl.Rpl);
  List.iter
    (fun (term, sid, _, _) -> Rpl.drop index Rpl.Erpl ~term ~sid)
    (Rpl.catalog index Rpl.Erpl);
  let plan = Advisor.greedy ~budget:max_int profiles in
  Advisor.apply index ~scoring ~workload:w plan;
  List.iter
    (fun (id, choice) ->
      let qq = Option.get (Workload.find w id) in
      let sids, terms = Workload.translate index qq.nexi in
      match choice with
      | Advisor.Use_rpl ->
          let answers, _ = Ta.run index ~sids ~terms ~k:qq.k () in
          ignore answers
      | Advisor.Use_erpl ->
          let answers, _ = Merge.run index ~sids ~terms in
          ignore answers
      | Advisor.No_index -> ())
    plan.decisions;
  Alcotest.(check bool) "some query supported" true
    (List.exists (fun (_, c) -> c <> Advisor.No_index) plan.decisions)

(* ---- autopilot ---- *)

let test_autopilot_lifecycle () =
  let module Autopilot = Trex_selfman.Autopilot in
  let coll = Trex_corpus.Gen.ieee ~doc_count:20 ~seed:17 () in
  let env = Env.in_memory () in
  let summary = Summary.create ~alias:coll.alias Summary.Incoming in
  let index = Index.build ~env ~summary (coll.docs ()) in
  let ir = "//sec[about(., information retrieval)]" in
  let music = "//article[about(., music)]" in
  let pilot =
    Autopilot.create index ~scoring:Trex_scoring.Scorer.default ~budget:max_int
      ~min_observations:10 ~drift_threshold:0.3 ()
  in
  (* Not enough data yet. *)
  (match Autopilot.maybe_replan pilot with
  | Autopilot.Too_few_observations n -> check Alcotest.int "zero seen" 0 n
  | _ -> Alcotest.fail "expected Too_few_observations");
  (* An IR-heavy mix triggers the first plan. *)
  for _ = 1 to 9 do
    Autopilot.record pilot ~nexi:ir ~k:5
  done;
  Autopilot.record pilot ~nexi:music ~k:5;
  (match Autopilot.maybe_replan pilot with
  | Autopilot.Replanned { plan; _ } ->
      Alcotest.(check bool) "plan recorded" true (Autopilot.current_plan pilot = Some plan);
      Alcotest.(check bool) "ir query supported" true
        (List.assoc (Trex_obs.Journal.digest_of ir) plan.Trex_selfman.Advisor.decisions
        <> Trex_selfman.Advisor.No_index)
  | v ->
      Alcotest.failf "expected Replanned, got %s"
        (Format.asprintf "%a" Autopilot.pp_verdict v));
  (* Same mix again: no drift, no replanning. *)
  for _ = 1 to 9 do
    Autopilot.record pilot ~nexi:ir ~k:5
  done;
  Autopilot.record pilot ~nexi:music ~k:5;
  (match Autopilot.maybe_replan pilot with
  | Autopilot.No_drift d -> Alcotest.(check bool) "small drift" true (d < 0.3)
  | _ -> Alcotest.fail "expected No_drift");
  (* Flip the mix to music-heavy: drift fires and the plan changes. *)
  for _ = 1 to 120 do
    Autopilot.record pilot ~nexi:music ~k:5
  done;
  (match Autopilot.maybe_replan pilot with
  | Autopilot.Replanned { drift; _ } ->
      Alcotest.(check bool) "large drift" true (drift >= 0.3)
  | _ -> Alcotest.fail "expected Replanned on drift");
  (* Frequencies sum to one. *)
  let total =
    List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Autopilot.observed_frequencies pilot)
  in
  check (Alcotest.float 1e-9) "frequencies normalized" 1.0 total

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trex_selfman"
    [
      ( "workload",
        [
          Alcotest.test_case "valid" `Quick test_workload_valid;
          Alcotest.test_case "invalid" `Quick test_workload_invalid;
          Alcotest.test_case "unweighted" `Quick test_workload_unweighted;
        ] );
      ( "cost",
        [ Alcotest.test_case "savings" `Quick test_savings ] );
      ( "advisor",
        [
          Alcotest.test_case "greedy fits budget" `Quick test_greedy_fits_budget;
          Alcotest.test_case "unlimited budget" `Quick
            test_greedy_unlimited_budget_takes_best_of_each;
          Alcotest.test_case "zero budget" `Quick test_zero_budget;
          Alcotest.test_case "shared lists counted once" `Quick
            test_shared_lists_counted_once;
          Alcotest.test_case "bnb beats greedy on ratio trap" `Quick
            test_branch_and_bound_beats_greedy_when_ratio_misleads;
          Alcotest.test_case "greedy switches a chosen query's option" `Quick
            test_greedy_switches_option;
          qtest prop_bnb_is_optimal;
          qtest prop_greedy_two_approximation;
          qtest prop_greedy_never_beats_optimal;
          qtest prop_greedy_within_budget_and_consistent;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "measure and apply" `Quick test_measure_and_apply;
          Alcotest.test_case "prefix-rpl measurement" `Quick
            test_measure_with_prefix_rpls;
          Alcotest.test_case "autopilot lifecycle" `Quick test_autopilot_lifecycle;
        ] );
    ]
