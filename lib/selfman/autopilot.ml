module Index = Trex_invindex.Index
module Rpl = Trex_topk.Rpl
module Env = Trex_storage.Env
module Breaker = Trex_resilience.Breaker
module Metrics = Trex_obs.Metrics

let m_rebuilds = Metrics.counter "resilience.rebuilds"

type observed = { nexi : string; mutable count : int; mutable k : int }

type t = {
  index : Index.t;
  scoring : Trex_scoring.Scorer.config;
  budget : int;
  min_observations : int;
  drift_threshold : float;
  seen : (string, observed) Hashtbl.t;
  mutable total : int;
  mutable plan : Advisor.plan option;
  mutable planned_freqs : (string * float) list; (* mix the plan was built for *)
}

let create index ~scoring ~budget ?(min_observations = 20) ?(drift_threshold = 0.25)
    () =
  if budget < 0 then invalid_arg "Autopilot.create: negative budget";
  {
    index;
    scoring;
    budget;
    min_observations;
    drift_threshold;
    seen = Hashtbl.create 16;
    total = 0;
    plan = None;
    planned_freqs = [];
  }

let record t ~nexi ~k =
  ignore (Trex_nexi.Parser.parse nexi);
  t.total <- t.total + 1;
  let id = Trex_obs.Journal.digest_of nexi in
  match Hashtbl.find_opt t.seen id with
  | Some o ->
      o.count <- o.count + 1;
      o.k <- k
  | None -> Hashtbl.add t.seen id { nexi; count = 1; k }

(* The journal is a file: a label that does not parse is skipped, not
   fatal. *)
let absorb_journal t records =
  List.fold_left
    (fun absorbed (r : Trex_obs.Journal.record) ->
      match record t ~nexi:r.label ~k:(max 1 r.k) with
      | () -> absorbed + 1
      | exception Trex_nexi.Parser.Syntax_error _ -> absorbed)
    0 records

let observations t = t.total

let observed_frequencies t =
  if t.total = 0 then []
  else
    Hashtbl.fold
      (fun id o acc -> (id, float_of_int o.count /. float_of_int t.total) :: acc)
      t.seen []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let current_plan t = t.plan

(* Total-variation distance between two frequency maps. *)
let drift old_freqs new_freqs =
  let ids =
    List.sort_uniq String.compare (List.map fst old_freqs @ List.map fst new_freqs)
  in
  let get l id = Option.value ~default:0.0 (List.assoc_opt id l) in
  List.fold_left
    (fun acc id -> acc +. Float.abs (get old_freqs id -. get new_freqs id))
    0.0 ids
  /. 2.0

type verdict =
  | Too_few_observations of int
  | No_drift of float
  | Replanned of { plan : Advisor.plan; drift : float }

let observed_workload t =
  Workload.create
    (List.map
       (fun (id, frequency) ->
         let o = Hashtbl.find t.seen id in
         { Workload.id; nexi = o.nexi; k = o.k; frequency })
       (observed_frequencies t))

let maybe_replan t =
  if t.total < t.min_observations then Too_few_observations t.total
  else begin
    let freqs = observed_frequencies t in
    let d = drift t.planned_freqs freqs in
    if t.plan <> None && d < t.drift_threshold then No_drift d
    else begin
      let workload = observed_workload t in
      let profiles =
        List.map
          (fun q -> Cost.measure t.index ~scoring:t.scoring ~runs:1 q)
          (Workload.queries workload)
      in
      let plan = Advisor.greedy ~budget:t.budget profiles in
      Advisor.apply t.index ~scoring:t.scoring ~workload ~profiles plan;
      t.plan <- Some plan;
      t.planned_freqs <- freqs;
      Replanned { plan; drift = d }
    end
  end

(* {2 Healing}

   The redundant tables come in (lists, catalog) pairs; quarantining one
   without the other would leave a catalog advertising lists that no
   longer exist — cursors would silently serve empty results, which is
   wrong, not degraded. So a trip on either member condemns the pair. *)
let quarantine_group name =
  List.find_map
    (fun kind ->
      let pair = [ Rpl.table_name kind; Rpl.catalog_name kind ] in
      if List.mem name pair then Some (pair, kind) else None)
    [ Rpl.Rpl; Rpl.Erpl ]

type heal_action =
  | Cooling_down  (** breaker open, cooldown not yet elapsed *)
  | Rebuilt of { tables : string list; entries_written : int }
  | Probe_ok  (** non-redundant table verified clean; breaker closed *)
  | Still_failing of string

type heal = { table : string; action : heal_action }

(* The lists of [kind] the plan selected; before any plan, those of
   every observed query. *)
let rebuild_from_workload t kind =
  let choice = if kind = Rpl.Rpl then Advisor.Use_rpl else Advisor.Use_erpl in
  let queries =
    match t.plan with
    | None -> Hashtbl.fold (fun _ o acc -> o :: acc) t.seen []
    | Some plan ->
        List.filter_map
          (fun (id, c) -> if c = choice then Hashtbl.find_opt t.seen id else None)
          plan.Advisor.decisions
  in
  List.fold_left
    (fun acc (o : observed) ->
      let sids, terms = Workload.translate t.index o.nexi in
      let report = Rpl.build t.index ~scoring:t.scoring ~sids ~terms ~kinds:[ kind ] () in
      acc + report.Rpl.entries_written)
    0 queries

let heal_one t env name b =
  if not (Breaker.allow b) then { table = name; action = Cooling_down }
  else
    (* [allow] admitted us as the half-open probe for this table. *)
    match quarantine_group name with
    | Some (tables, kind) -> (
        (* Quarantine the pair, rebuild it ([Rpl.build] writes each
           list in one redo-logged op, durable on return), then probe.
           An interruption leaves each list whole or absent; the
           breakers stay open and the next [maybe_heal] retries. *)
        let fail reason =
          List.iter (fun tbl -> Breaker.record_failure (Env.breaker env tbl) ~reason) tables;
          { table = name; action = Still_failing reason }
        in
        match
          List.iter (Env.quarantine_table env) tables;
          let entries_written = rebuild_from_workload t kind in
          (* The probe reads the disk, so the pair must be there even
             when nothing was rebuilt into it (a plan holding no list
             of this kind). *)
          List.iter (fun tbl -> ignore (Env.table env tbl)) tables;
          Env.flush ~sync:true env;
          let probes = List.map (Env.verify_table env) tables in
          (entries_written, List.filter (fun r -> not r.Env.ok) probes)
        with
        | entries_written, [] ->
            Metrics.incr m_rebuilds;
            List.iter (fun tbl -> Breaker.record_success (Env.breaker env tbl)) tables;
            { table = name; action = Rebuilt { tables; entries_written } }
        | _, bad :: _ -> fail (String.concat "; " bad.Env.problems)
        | exception e -> fail (Printexc.to_string e))
    | None -> (
        (* Base tables have no redundant substitute: probe in place. *)
        match Env.verify_table env name with
        | { Env.ok = true; _ } ->
            Breaker.record_success b;
            { table = name; action = Probe_ok }
        | report ->
            let reason = String.concat "; " report.Env.problems in
            Breaker.record_failure b ~reason;
            { table = name; action = Still_failing reason }
        | exception e ->
            let reason = Printexc.to_string e in
            Breaker.record_failure b ~reason;
            { table = name; action = Still_failing reason })

let maybe_heal t =
  let env = Index.env t.index in
  let tripped =
    List.filter_map
      (fun (name, state) ->
        if state = Breaker.Closed then None else Some name)
      (Env.breaker_states env)
  in
  (* A pair member healed earlier in the pass closes its partner's
     breaker too; re-check state so we don't heal the same pair twice. *)
  List.filter_map
    (fun name ->
      let b = Env.breaker env name in
      if Breaker.state b = Breaker.Closed then None
      else Some (heal_one t env name b))
    tripped

let pp_heal fmt { table; action } =
  match action with
  | Cooling_down -> Format.fprintf fmt "%s: cooling down" table
  | Rebuilt { tables; entries_written } ->
      Format.fprintf fmt "%s: quarantined and rebuilt [%s], %d entries" table
        (String.concat " " tables) entries_written
  | Probe_ok -> Format.fprintf fmt "%s: probe verified clean, breaker closed" table
  | Still_failing reason -> Format.fprintf fmt "%s: still failing (%s)" table reason

let pp_verdict fmt = function
  | Too_few_observations n -> Format.fprintf fmt "too few observations (%d)" n
  | No_drift d -> Format.fprintf fmt "no drift (%.3f)" d
  | Replanned { plan; drift } ->
      Format.fprintf fmt "replanned at drift %.3f: %d bytes, %.2f ms saving" drift
        plan.Advisor.bytes_used
        (plan.Advisor.expected_saving *. 1e3)
