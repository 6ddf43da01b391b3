(* Self-managing index selection (paper §4): given a workload of top-k
   queries and a disk budget, measure per-query costs, plan which
   RPLs/ERPLs to materialize with the greedy 2-approximation and the
   exact branch-and-bound, apply the plan, and show the resulting
   method choices.

     dune exec examples/index_advisor.exe
     dune exec examples/index_advisor.exe -- 50      (budget, % of full) *)

let () =
  let budget_pct =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 40
  in
  let coll = Trex_corpus.Gen.ieee ~doc_count:120 () in
  Printf.printf "building %s...\n%!" coll.name;
  let env = Trex.Env.in_memory () in
  let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in

  (* A workload: frequent cheap lookups plus a rare expensive sweep. *)
  let spec =
    [
      ("sections-ir", "//article//sec[about(., introduction information retrieval)]", 0.5);
      ("security", "//sec[about(., code signing verification)]", 0.3);
      ("everything", "//bdy//*[about(., model checking state space explosion)]", 0.2);
    ]
  in
  let workload =
    Trex.Workload.create
      (List.map
         (fun (id, nexi, frequency) -> { Trex.Workload.id; nexi; k = 10; frequency })
         spec)
  in

  Printf.printf "measuring workload costs (this materializes indexes temporarily)...\n%!";
  let plan_full, profiles = Trex.advise engine ~workload ~budget:max_int () in
  List.iter
    (fun (p : Trex.Cost.profile) ->
      Printf.printf "  %-12s f=%.2f  ERA %8.2fms  Merge %7.2fms  TA %7.2fms\n" p.id
        p.frequency (p.time_era *. 1e3) (p.time_merge *. 1e3) (p.time_ta *. 1e3))
    profiles;
  Printf.printf "unbounded plan: %d bytes, expected saving %.2f ms/query\n\n"
    plan_full.bytes_used
    (plan_full.expected_saving *. 1e3);

  let budget = plan_full.bytes_used * budget_pct / 100 in
  Printf.printf "disk budget: %d bytes (%d%% of full)\n" budget budget_pct;
  let greedy = Trex.Advisor.greedy ~budget profiles in
  let optimal = Trex.Advisor.branch_and_bound ~budget profiles in
  let show name (plan : Trex.Advisor.plan) =
    Printf.printf "%s: %d bytes, saving %.2f ms\n" name plan.bytes_used
      (plan.expected_saving *. 1e3);
    List.iter
      (fun (id, choice) ->
        Printf.printf "  %-12s -> %s\n" id (Trex.Advisor.choice_to_string choice))
      plan.decisions
  in
  show "greedy (2-approximation)" greedy;
  show "branch-and-bound (optimal)" optimal;
  Printf.printf "greedy achieves %.0f%% of optimal (theorem guarantees >= 50%%)\n\n"
    (if optimal.expected_saving > 0.0 then
       100.0 *. greedy.expected_saving /. optimal.expected_saving
     else 100.0);

  (* The measurement pass dropped the lists it built; reclaim their
     space, then apply only what the plan selected and let the engine
     pick methods. *)
  Trex.vacuum engine;
  Trex.Advisor.apply (Trex.index engine) ~scoring:(Trex.scoring engine) ~workload greedy;
  Printf.printf "after applying the greedy plan the engine chooses:\n";
  List.iter
    (fun (id, nexi, _) ->
      let o = Trex.query engine ~k:10 nexi in
      Printf.printf "  %-12s -> %-6s (%.2f ms)\n" id
        (Trex.Strategy.method_to_string o.strategy.method_used)
        (o.strategy.elapsed_seconds *. 1e3))
    spec;

  (* Fully closed loop: the autopilot watches executed queries and
     replans on its own when the observed mix drifts. *)
  Printf.printf "\n--- autopilot (observed-workload self-management)\n";
  let pilot =
    Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
      ~budget ~min_observations:20 ~drift_threshold:0.25 ()
  in
  let observe times (_, nexi, _) =
    for _ = 1 to times do
      Trex.Autopilot.record pilot ~nexi ~k:10
    done
  in
  let report () =
    Format.printf "  autopilot: %a@." Trex.Autopilot.pp_verdict
      (Trex.Autopilot.maybe_replan pilot)
  in
  (* Phase 1: the workload looks like the spec said. *)
  List.iteri (fun i q -> observe (12 - (4 * i)) q) spec;
  report ();
  (* Phase 2: the expensive sweep suddenly dominates; the autopilot
     notices the drift and reshuffles the indexes. *)
  observe 200 (List.nth spec 2);
  report ()
