module Stopclock = Trex_util.Stopclock
module Metrics = Trex_obs.Metrics
module Span = Trex_obs.Span
module Env = Trex_storage.Env
module Pager = Trex_storage.Pager
module Guard = Trex_resilience.Guard

let m_degraded_runs = Metrics.counter "resilience.degraded_runs"
let m_fallbacks = Metrics.counter "resilience.fallbacks"

type method_ = Era_method | Ta_method | Ita_method | Merge_method

let method_to_string = function
  | Era_method -> "ERA"
  | Ta_method -> "TA"
  | Ita_method -> "ITA"
  | Merge_method -> "Merge"

let all_methods = [ Era_method; Ta_method; Ita_method; Merge_method ]

(* Register every strategy's run counter at load time so `trex_cli
   stats` lists them all, including the ones still at zero. *)
let () =
  List.iter
    (fun m -> ignore (Metrics.counter ("strategy.runs." ^ method_to_string m)))
    all_methods

(* The Env tables a method reads beyond the base index; an open breaker
   on any of them takes the method out of planning, and a failure
   inside the method trips exactly these. ERA reads only the base
   tables, which have no redundant substitute — it maps to []. *)
let tables_of_method = function
  | Era_method -> []
  | Ta_method | Ita_method -> [ Rpl.table_name Rpl.Rpl; Rpl.catalog_name Rpl.Rpl ]
  | Merge_method -> [ Rpl.table_name Rpl.Erpl; Rpl.catalog_name Rpl.Erpl ]

type outcome = {
  method_used : method_;
  answers : Answer.t;
  elapsed_seconds : float;
  entries_read : int;
  degraded : bool;
  detail : string;
}

let evaluate_inner index ~scoring ~sids ~terms ~k ?guard ?floor method_ =
  match method_ with
  | Era_method ->
      let clock = Stopclock.create () in
      let results, stats = Era.run ?guard index ~sids ~terms in
      let answers = Era.score_results index ~scoring ~terms results in
      {
        method_used = Era_method;
        answers;
        elapsed_seconds = Stopclock.elapsed clock;
        entries_read = stats.positions_scanned;
        degraded = stats.degraded;
        detail =
          Printf.sprintf "positions=%d seeks=%d emitted=%d" stats.positions_scanned
            stats.iterator_seeks stats.elements_emitted;
      }
  | Ta_method | Ita_method ->
      let ideal_heap = method_ = Ita_method in
      let answers, stats =
        Ta.run index ~sids ~terms ~k ~ideal_heap ?floor ?guard ()
      in
      {
        method_used = method_;
        answers;
        elapsed_seconds = stats.elapsed_seconds;
        entries_read = stats.sorted_accesses;
        degraded = stats.degraded;
        detail =
          Printf.sprintf
            "accesses=%d heap_ops=%d pushes=%d evictions=%d candidates=%d early=%b"
            stats.sorted_accesses stats.heap_operations stats.heap_pushes
            stats.heap_evictions stats.candidates stats.stopped_early;
      }
  | Merge_method ->
      let answers, stats = Merge.run ?guard index ~sids ~terms in
      {
        method_used = Merge_method;
        answers;
        elapsed_seconds = stats.elapsed_seconds;
        entries_read = stats.entries_read;
        degraded = stats.degraded;
        detail =
          Printf.sprintf "entries=%d merged=%d" stats.entries_read
            stats.elements_merged;
      }

let evaluate index ~scoring ~sids ~terms ~k ?guard ?floor method_ =
  let name = method_to_string method_ in
  let outcome =
    Span.with_ ~name:("eval." ^ name)
      ~attrs:[ ("strategy", name); ("k", string_of_int k) ]
      (fun () -> evaluate_inner index ~scoring ~sids ~terms ~k ?guard ?floor method_)
  in
  Metrics.incr (Metrics.counter ("strategy.runs." ^ name));
  if outcome.degraded then Metrics.incr m_degraded_runs;
  Metrics.observe (Metrics.histogram ("strategy.seconds." ^ name)) outcome.elapsed_seconds;
  outcome

(* Whether [method_]'s breakers admit it and its lists cover the
   query. The breakers are asked first, so planning never reads a
   tripped catalog; a catalog that fails its read trips the method's
   tables, as a failed evaluation would, and the planner routes around
   it. *)
let usable index method_ kind ~sids ~terms =
  let env = Trex_invindex.Index.env index in
  let tables = tables_of_method method_ in
  List.for_all (Env.table_available env) tables
  &&
  match Rpl.covers index kind ~sids ~terms with
  | covered -> covered
  | exception (Pager.Corruption _ as e) ->
      let reason = Printexc.to_string e in
      List.iter (fun tbl -> Env.trip_table env tbl ~reason) tables;
      false

let available index ~sids ~terms =
  let rpl_ok = usable index Ta_method Rpl.Rpl ~sids ~terms in
  let erpl_ok = usable index Merge_method Rpl.Erpl ~sids ~terms in
  List.filter
    (function
      | Era_method -> true
      | Ta_method | Ita_method -> rpl_ok
      | Merge_method -> erpl_ok)
    all_methods

let materialized_entries index kind ~sids ~terms =
  List.fold_left
    (fun acc term ->
      List.fold_left
        (fun acc sid -> acc + Rpl.list_entries index kind ~term ~sid)
        acc sids)
    0 terms

let choose index ~sids ~terms ~k =
  let methods = available index ~sids ~terms in
  let has m = List.mem m methods in
  (* TA wins when it can stop after a small prefix; once k approaches
     the list sizes it reads everything and pays heap management on
     top, where Merge's single pass wins (paper §5.2). The rule is
     [20 k <= max 1 total_rpl], divided out so a huge k cannot wrap. *)
  if has Ta_method && k <= max 1 (materialized_entries index Rpl.Rpl ~sids ~terms) / 20
  then Ta_method
  else if has Merge_method then Merge_method
  else if has Ta_method then Ta_method
  else Era_method

type failover = { failed : method_; error : string }

let evaluate_resilient index ~scoring ~sids ~terms ~k ?guard ?floor ?method_ ()
    =
  let env = Trex_invindex.Index.env index in
  (* A failure inside a redundant-index method trips that method's
     tables and re-plans over the survivors, so TA falls back to Merge
     falls back to ERA. ERA has no substitute: its failures (and any
     non-storage exception, e.g. Truncated_rpl on a forced method)
     propagate typed. Termination: every fallback trips at least one
     table, shrinking [available] until only ERA is left. *)
  let rec go forced failovers =
    let m =
      match forced with Some m -> m | None -> choose index ~sids ~terms ~k
    in
    let tables = tables_of_method m in
    (* Consuming admission: a half-open table hands this evaluation its
       single probe slot. Remember which tables are probing so every
       exit path resolves the slot — a degraded run or an escaped guard
       abort fails the probe (re-opening the breaker) instead of
       leaking it half-open forever. *)
    List.iter (fun tbl -> ignore (Env.admit_table env tbl)) tables;
    let probes = List.filter (Env.table_probing env) tables in
    let fail_probes reason =
      List.iter (fun tbl -> Env.fail_table env tbl ~reason) probes
    in
    match evaluate index ~scoring ~sids ~terms ~k ?guard ?floor m with
    | outcome ->
        if outcome.degraded && probes <> [] then begin
          (* The probe proved nothing: the budget expired before the
             table served a complete run. Re-open rather than close on
             an unverified table. *)
          fail_probes "half-open probe expired its budget (degraded run)";
          List.iter
            (fun tbl ->
              if not (List.mem tbl probes) then Env.note_table_success env tbl)
            tables
        end
        else List.iter (Env.note_table_success env) tables;
        (outcome, List.rev failovers)
    | exception ((Pager.Corruption _ | Rpl.Stale_generation _) as e)
      when tables <> [] ->
        let error = Printexc.to_string e in
        List.iter (fun tbl -> Env.trip_table env tbl ~reason:error) tables;
        Metrics.incr m_fallbacks;
        go None ({ failed = m; error } :: failovers)
    | exception (Guard.Budget_exceeded _ as e) ->
        fail_probes "half-open probe aborted by guard budget";
        raise e
  in
  go method_ []
