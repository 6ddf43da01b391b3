module Env = Trex_storage.Env
module Manifest = Trex_storage.Manifest
module Pager = Trex_storage.Pager
module Index = Trex_invindex.Index
module Tables = Trex_invindex.Tables
module Types = Trex_invindex.Types
module Summary = Trex_summary.Summary
module Alias = Trex_summary.Alias
module Scorer = Trex_scoring.Scorer
module Nexi_parser = Trex_nexi.Parser
module Translate = Trex_nexi.Translate
module Answer = Trex_topk.Answer
module Rpl = Trex_topk.Rpl
module Strategy = Trex_topk.Strategy
module Breaker = Trex_resilience.Breaker
module Guard = Trex_resilience.Guard
module Obs = Trex_obs
module Json = Trex_obs.Json
module Metrics = Trex_obs.Metrics

let m_queries = Metrics.counter "shard.queries"
let m_degraded = Metrics.counter "shard.degraded_queries"
let m_skipped = Metrics.counter "shard.shards_skipped"
let m_early = Metrics.counter "shard.early_terminations"
let m_rebalances = Metrics.counter "shard.rebalances"
let m_stale_sweeps = Metrics.counter "supervisor.stale_sweeps"

let map_file = "SHARDMAP.json"
let stats_file = "CORPUS_STATS.json"
let manifest_file = "SHARDS.mf"
let map_table = "shardmap"

type shard_info = { name : string; base : int; docs : int }
type map = { next_id : int; infos : shard_info list }

(* One attached (servable) shard. *)
type attached = { a_info : shard_info; a_env : Env.t; a_index : Index.t }

type t = {
  t_dir : string;
  scoring : Scorer.config;
  manifest : Manifest.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable next_id : int;
  mutable infos : shard_info list;  (** the full map, ascending base *)
  mutable attached : attached list;  (** servable shards, ascending base *)
  mutable blocked : (string * string) list;
  mutable unresolved_ops : string list;
  mutable shard_hook : (string -> unit) option;
  mutable op_hook : (string -> unit) option;
}

let dir t = t.t_dir
let shards t = t.infos
let blocked t = t.blocked
let unresolved t = t.unresolved_ops
let set_shard_hook t h = t.shard_hook <- h
let set_op_hook t h = t.op_hook <- h
let fire t point = match t.op_hook with Some f -> f point | None -> ()

let shard_name id = Printf.sprintf "shard-%03d" id

let breaker t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let b = Breaker.create ("shard." ^ name) in
      Hashtbl.add t.breakers name b;
      b

let index_of t name =
  Option.map
    (fun a -> a.a_index)
    (List.find_opt (fun a -> a.a_info.name = name) t.attached)

(* ---- filesystem helpers ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* ---- shard map ---- *)

let map_to_json (m : map) =
  Json.Obj
    [
      ("next_id", Json.Int m.next_id);
      ( "shards",
        Json.List
          (List.map
             (fun i ->
               Json.Obj
                 [
                   ("name", Json.String i.name);
                   ("base", Json.Int i.base);
                   ("docs", Json.Int i.docs);
                 ])
             m.infos) );
    ]

let map_of_json j =
  let get_int field o =
    match Json.member field o with
    | Some (Json.Int i) -> i
    | _ -> failwith (Printf.sprintf "shard map: missing field %S" field)
  in
  let get_string field o =
    match Json.member field o with
    | Some (Json.String s) -> s
    | _ -> failwith (Printf.sprintf "shard map: missing field %S" field)
  in
  let infos =
    match Json.member "shards" j with
    | Some (Json.List l) ->
        List.map
          (fun o ->
            { name = get_string "name" o; base = get_int "base" o; docs = get_int "docs" o })
          l
    | _ -> failwith "shard map: missing field \"shards\""
  in
  ({ next_id = get_int "next_id" j; infos } : map)

let sort_infos infos = List.sort (fun a b -> compare a.base b.base) infos

(* The map flip must be atomic: a fully-written, fsynced temp file is
   renamed over the old map and the directory entry is fsynced. *)
let write_file_atomic dir file json_text =
  let path = Filename.concat dir file in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let bytes = Bytes.of_string json_text in
      let n = Unix.write fd bytes 0 (Bytes.length bytes) in
      if n <> Bytes.length bytes then failwith "shard map: short write";
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir dir

let write_map_file dir json_text = write_file_atomic dir map_file json_text

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_map dir =
  let path = Filename.concat dir map_file in
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf "%s: no %s (not a shard coordinator directory?)" dir map_file);
  map_of_json (Json.parse (read_file path))

(* ---- corpus-wide scoring statistics ----

   Rank identity needs every shard to score with statistics of the
   WHOLE corpus, and those statistics must not drift when a shard is
   quarantined or fails to attach — a lost shard may cost answers, but
   it must never change the scores of the answers the surviving shards
   produce. So the statistics are coordinator metadata: computed once
   at {!create} from the full document set, persisted next to the
   shard map, and loaded verbatim at every {!open_}. Rebalances leave
   the file alone (the corpus is unchanged). *)

type stats = {
  s_doc_count : int;
  s_avg_element_length : float;
  s_df : (string, int) Hashtbl.t;
}

let stats_of_indexes indexes =
  let doc_count = ref 0 and element_count = ref 0 and length_sum = ref 0.0 in
  let df : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun index ->
      let s = Index.stats index in
      doc_count := !doc_count + s.Index.doc_count;
      element_count := !element_count + s.Index.element_count;
      length_sum :=
        !length_sum +. (s.Index.avg_element_length *. float_of_int s.Index.element_count);
      Index.iter_terms index (fun token ~df:d ~cf:_ ->
          Hashtbl.replace df token
            (d + Option.value ~default:0 (Hashtbl.find_opt df token))))
    indexes;
  let avg =
    if !element_count = 0 then 0.0 else !length_sum /. float_of_int !element_count
  in
  { s_doc_count = !doc_count; s_avg_element_length = avg; s_df = df }

let write_stats_file dir stats =
  let df =
    Hashtbl.fold (fun token d acc -> (token, Json.Int d) :: acc) stats.s_df []
  in
  let json =
    Json.Obj
      [
        ("doc_count", Json.Int stats.s_doc_count);
        ("avg_element_length", Json.Float stats.s_avg_element_length);
        ("df", Json.Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) df));
      ]
  in
  write_file_atomic dir stats_file (Json.to_string json)

let load_stats dir =
  let path = Filename.concat dir stats_file in
  if not (Sys.file_exists path) then None
  else
    match
      let j = Json.parse (read_file path) in
      let doc_count =
        match Json.member "doc_count" j with
        | Some (Json.Int i) -> i
        | _ -> failwith "corpus stats: missing doc_count"
      in
      let avg =
        match Json.member "avg_element_length" j with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> failwith "corpus stats: missing avg_element_length"
      in
      let df = Hashtbl.create 4096 in
      (match Json.member "df" j with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (token, v) ->
              match v with
              | Json.Int d -> Hashtbl.replace df token d
              | _ -> failwith "corpus stats: non-integer df")
            fields
      | _ -> failwith "corpus stats: missing df");
      { s_doc_count = doc_count; s_avg_element_length = avg; s_df = df }
    with
    | s -> Some s
    | exception _ -> None

let overrides_of_stats stats =
  {
    Index.corpus_doc_count = stats.s_doc_count;
    corpus_avg_element_length = stats.s_avg_element_length;
    global_df = (fun token -> Hashtbl.find_opt stats.s_df token);
  }

let attach_index env =
  match Index.attach env with
  | index -> index
  | exception e ->
      Env.close env;
      raise e

(* Worker-side attach: one shard environment with the corpus-wide
   scoring overrides installed, exactly as [attach_all] does for the
   in-process coordinator — the process boundary must not change a
   single score. Opened through table recovery, not plain [on_disk]: a
   SIGKILLed predecessor is a genuine crash and may have left a table
   (typically a lazily-created RPL catalog) whose creation never
   committed; the recovery path reinitializes it instead of poisoning
   every future worker with [Pager.Corruption] at first touch. *)
let attach_shard ~dir name =
  let env, _reports = Env.open_with_recovery (Filename.concat dir name) in
  let index = attach_index env in
  (match load_stats dir with
  | Some stats -> Index.set_scoring_overrides index (overrides_of_stats stats)
  | None -> ());
  (env, index)

(* ---- stale worker artifacts ----

   A crashed coordinator can orphan per-shard worker droppings
   ([worker.pid], and any [worker.sock] from hypothetical
   socket-file transports). Like the stale [.compact-tmp] sweep in the
   storage layer, coordinator open removes the ones whose owning
   process is gone, so shard directories never accumulate dead
   artifacts across crash cycles. A pid file whose process is still
   alive is left alone (pid reuse makes killing it a gamble; the live
   orphan exits on its own when its socketpair closes). *)

let worker_pid_file = "worker.pid"

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true

let sweep_stale_worker_artifacts dir infos =
  let swept = ref 0 in
  let remove path =
    match Sys.remove path with
    | () ->
        incr swept;
        Metrics.incr m_stale_sweeps
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun info ->
      let sdir = Filename.concat dir info.name in
      let pidf = Filename.concat sdir worker_pid_file in
      (if Sys.file_exists pidf then
         let stale =
           match
             let ic = open_in_bin pidf in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> int_of_string (String.trim (input_line ic)))
           with
           | pid -> not (pid_alive pid)
           | exception _ -> true (* unparseable: never a live worker *)
         in
         if stale then remove pidf);
      let sockf = Filename.concat sdir "worker.sock" in
      if Sys.file_exists sockf then remove sockf)
    infos;
  !swept

(* ---- open / recovery ---- *)

(* Resolve pending rebalance operations, oldest first. Uncommitted ops
   roll back (half-built shard directories removed); committed ops roll
   forward (map from the op's Step reinstalled, source directories
   removed) — unless a new shard directory is already gone, in which
   case the op stays pending and its shards are quarantined rather than
   served from a maybe-superseded slice. *)
let recover manifest dir =
  let current = ref (read_map dir) in
  let pre_blocked = ref [] and unresolved_ops = ref [] in
  let unresolvable (p : Manifest.pending) why =
    unresolved_ops :=
      Printf.sprintf "op#%d %s: %s" p.Manifest.p_op_id p.Manifest.p_op why
      :: !unresolved_ops;
    List.iter
      (fun tbl ->
        if List.exists (fun i -> i.name = tbl) !current.infos then
          pre_blocked :=
            (tbl, Printf.sprintf "unresolvable rebalance op#%d" p.Manifest.p_op_id)
            :: !pre_blocked)
      p.Manifest.p_tables
  in
  List.iter
    (fun (p : Manifest.pending) ->
      match p.Manifest.p_status with
      | Manifest.Roll_back ->
          List.iter (fun name -> rm_rf (Filename.concat dir name)) p.Manifest.p_rollback;
          Manifest.append manifest
            (Manifest.Abort
               {
                 op_id = p.Manifest.p_op_id;
                 note = Printf.sprintf "%s rolled back at open" p.Manifest.p_op;
               })
      | Manifest.Roll_forward -> (
          let new_map =
            List.find_map
              (function
                | Manifest.Put { table; value; _ } when table = map_table -> (
                    match Json.parse value with
                    | j -> ( match map_of_json j with m -> Some m | exception _ -> None)
                    | exception Json.Parse_error _ -> None)
                | _ -> None)
              p.Manifest.p_steps
          in
          match new_map with
          | None -> unresolvable p "committed but carries no shard map"
          | Some m ->
              let missing =
                List.filter
                  (fun name ->
                    List.exists (fun i -> i.name = name) m.infos
                    && not (Sys.file_exists (Filename.concat dir name)))
                  p.Manifest.p_rollback
              in
              if missing <> [] then
                unresolvable p
                  (Printf.sprintf "committed but shard %s is gone"
                     (String.concat ", " missing))
              else begin
                write_map_file dir (Json.to_string (map_to_json m));
                List.iter
                  (fun tbl ->
                    if not (List.exists (fun i -> i.name = tbl) m.infos) then
                      rm_rf (Filename.concat dir tbl))
                  p.Manifest.p_tables;
                Manifest.append manifest (Manifest.End { op_id = p.Manifest.p_op_id });
                current := m
              end))
    (Manifest.pending manifest);
  Manifest.sync manifest;
  if Manifest.pending manifest = [] then Manifest.compact manifest;
  (!current, List.rev !pre_blocked, List.rev !unresolved_ops)

(* Corpus-wide scoring statistics, recomputed over the attached shards
   and installed as overrides so every shard scores as the single-env
   engine would (doc count, mean element length, per-term df). *)
let install_overrides t =
  match t.attached with
  | [] -> ()
  | attached ->
      (* Prefer the persisted full-corpus snapshot; recomputing from
         the attached shards is only a fallback for coordinator
         directories predating the stats file, and is wrong whenever a
         shard is quarantined. *)
      let stats =
        match load_stats t.t_dir with
        | Some s -> s
        | None -> stats_of_indexes (List.map (fun a -> a.a_index) attached)
      in
      let overrides = overrides_of_stats stats in
      List.iter (fun a -> Index.set_scoring_overrides a.a_index overrides) attached

(* (Re-)attach every servable shard of the map. Shards that fail to
   attach are quarantined, not fatal — the coordinator serves what it
   can and tags the rest. *)
let attach_all t pre_blocked =
  List.iter (fun a -> Env.close a.a_env) t.attached;
  t.attached <- [];
  let acc = ref [] and blocked = ref pre_blocked in
  List.iter
    (fun info ->
      if not (List.mem_assoc info.name pre_blocked) then begin
        let sdir = Filename.concat t.t_dir info.name in
        match
          if not (Sys.file_exists sdir) then failwith "shard directory missing";
          let env = Env.on_disk sdir in
          { a_info = info; a_env = env; a_index = attach_index env }
        with
        | a -> acc := a :: !acc
        | exception e -> blocked := !blocked @ [ (info.name, Printexc.to_string e) ]
      end)
    t.infos;
  t.attached <-
    List.sort (fun a b -> compare a.a_info.base b.a_info.base) (List.rev !acc);
  t.blocked <- blocked.contents;
  install_overrides t

let load_map dir = sort_infos (read_map dir).infos

let open_ ?(scoring = Scorer.default) dir =
  let manifest = Manifest.open_file (Filename.concat dir manifest_file) in
  let map, pre_blocked, unresolved_ops = recover manifest dir in
  ignore (sweep_stale_worker_artifacts dir (sort_infos map.infos));
  let t =
    {
      t_dir = dir;
      scoring;
      manifest;
      breakers = Hashtbl.create 8;
      next_id = map.next_id;
      infos = sort_infos map.infos;
      attached = [];
      blocked = [];
      unresolved_ops;
      shard_hook = None;
      op_hook = None;
    }
  in
  attach_all t pre_blocked;
  t

let close t =
  List.iter (fun a -> Env.close a.a_env) t.attached;
  t.attached <- [];
  Manifest.close t.manifest

let abort t =
  List.iter (fun a -> Env.abort a.a_env) t.attached;
  t.attached <- [];
  Manifest.abort t.manifest

(* ---- create ---- *)

let rec split_at n l =
  if n <= 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

let create ~dir ~shards:n ?(summary_criterion = Summary.Incoming)
    ?(alias = Alias.identity) ?analyzer ?(scoring = Scorer.default) docs =
  if n <= 0 then invalid_arg "Shard.create: shard count must be positive";
  let total = List.length docs in
  if total < n then
    invalid_arg
      (Printf.sprintf "Shard.create: %d documents cannot fill %d shards" total n);
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Contiguous slices of near-equal size: global docid = position in
     [docs], shard i holds [base_i .. base_i + docs_i - 1]. *)
  let rec build_slices i base remaining acc =
    if i = n then List.rev acc
    else begin
      let size = (total / n) + if i < total mod n then 1 else 0 in
      let part, rest = split_at size remaining in
      let info = { name = shard_name i; base; docs = size } in
      build_slices (i + 1) (base + size) rest ((info, part) :: acc)
    end
  in
  let slices = build_slices 0 0 docs [] in
  (* Build every slice, then snapshot the full-corpus scoring
     statistics while all freshly built indexes are still open — they
     are persisted once, here, and never recomputed from a
     possibly-partial set of shards. *)
  let built =
    List.map
      (fun (info, part) ->
        let env = Env.on_disk (Filename.concat dir info.name) in
        let summary = Summary.create ~alias summary_criterion in
        let index = Index.build ~env ~summary ?analyzer (List.to_seq part) in
        (env, index))
      slices
  in
  write_stats_file dir (stats_of_indexes (List.map snd built));
  List.iter (fun (env, _) -> Env.close env) built;
  let map = { next_id = n; infos = List.map fst slices } in
  write_map_file dir (Json.to_string (map_to_json map));
  open_ ~scoring dir

(* ---- query: one scatter core, two dispatches ---- *)

type shard_report = {
  r_shard : string;
  r_method : Strategy.method_ option;
  r_entries_read : int;
  r_elapsed_seconds : float;
  r_kept : int;
  r_floor : float;
}

type result = {
  answers : Answer.t;
  k : int;
  degraded : bool;
  degraded_shards : (string * string) list;
  reports : shard_report list;
}

type slice = { floor : float; deadline_ms : float option; page_budget : int option }

type reply = {
  local_answers : Answer.t;
  partial : bool;
  method_used : Strategy.method_ option;
  entries_read : int;
  elapsed_s : float;
  pages_used : int;
}

type outcome = Reply of reply | Failed of string | Lost of string

type target = {
  shard : shard_info;
  breaker : Breaker.t;
  unavailable : unit -> string option;
}

(* The query against one shard's summary: its translation and the
   (sids, terms) it touches. *)
let translate index ast =
  let tr =
    Translate.translate ~summary:(Index.summary index)
      ~normalize:(Index.normalize_term index) ast
  in
  (tr, Translate.all_sids tr, Translate.all_terms tr)

(* The per-shard half of the scatter, shared by the in-process
   dispatch and the worker process. Truncating to k is sound because
   the merge order is total: an entry outside this shard's top k is
   outside the global top k too. *)
let evaluate_shard index ~scoring ~k ~strict ?method_ slice ast =
  let t0 = Trex_util.Stopclock.now () in
  let guard =
    match (slice.deadline_ms, slice.page_budget) with
    | None, None -> None
    | deadline_ms, page_budget -> Some (Guard.create ?deadline_ms ?page_budget ())
  in
  let translation, sids, terms = translate index ast in
  let local_answers, partial, method_used, entries_read, elapsed_s =
    if sids = [] || terms = [] then
      (* Nothing in this shard matches the query's structure: a
         successful (empty) contribution. *)
      ([], false, None, 0, Trex_util.Stopclock.now () -. t0)
    else
      let o, _fallbacks =
        Strategy.evaluate_resilient index ~scoring ~sids ~terms ~k ?guard
          ~floor:slice.floor ?method_ ()
      in
      let target = translation.Translate.target_sids in
      let above_floor (e : Answer.entry) =
        e.Answer.score > slice.floor
        && ((not strict) || List.mem e.Answer.element.Types.sid target)
      in
      ( Answer.top_k (List.filter above_floor o.Strategy.answers) k,
        o.Strategy.degraded,
        Some o.Strategy.method_used,
        o.Strategy.entries_read,
        o.Strategy.elapsed_seconds )
  in
  let pages_used = match guard with Some g -> Guard.pages_used g | None -> 0 in
  ( translation,
    { local_answers; partial; method_used; entries_read; elapsed_s; pages_used } )

let scatter ~k ~wave ?deadline_ms ?page_budget ~dispatch targets nexi =
  Metrics.incr m_queries;
  let ast = Nexi_parser.parse nexi in
  let started = Trex_util.Stopclock.now () in
  let pages_spent = ref 0 in
  let merged = ref ([] : Answer.t) in
  let tags = ref [] in
  let reports = ref [] in
  let tag name reason = tags := (name, reason) :: !tags in
  let skip name reason =
    Metrics.incr m_skipped;
    tag name reason
  in
  let fold floor (tg, outcome) =
    let name = tg.shard.name and b = tg.breaker in
    match outcome with
    | Reply r ->
        if r.partial then begin
          tag name "budget expired mid-shard (partial shard answers)";
          if Breaker.probing b then
            Breaker.record_failure b ~reason:"half-open probe came back degraded"
        end
        else Breaker.record_success b;
        pages_spent := !pages_spent + r.pages_used;
        let kept =
          List.map
            (fun (e : Answer.entry) ->
              let el = e.Answer.element in
              let docid = el.Types.docid + tg.shard.base in
              { e with Answer.element = { el with Types.docid } })
            r.local_answers
        in
        merged := Answer.top_k (Answer.merge [ !merged; kept ]) k;
        reports :=
          {
            r_shard = name;
            r_method = r.method_used;
            r_entries_read = r.entries_read;
            r_elapsed_seconds = r.elapsed_s;
            r_kept = List.length kept;
            r_floor = floor;
          }
          :: !reports
    | Failed reason ->
        Breaker.record_failure b ~reason;
        skip name reason
    | Lost reason -> skip name reason
  in
  let run_wave wave =
    (* The global k-th score achieved so far: any answer this wave
       could contribute must beat it, so each shard's TA may stop the
       moment its local threshold falls below it. *)
    let floor =
      if List.length !merged >= k then (List.nth !merged (k - 1)).Answer.score
      else 0.0
    in
    let remaining_ms =
      Option.map
        (fun d -> d -. ((Trex_util.Stopclock.now () -. started) *. 1000.0))
        deadline_ms
    in
    let remaining_pages = Option.map (fun p -> p - !pages_spent) page_budget in
    let exhausted =
      (match remaining_ms with Some ms -> ms <= 0.0 | None -> false)
      || match remaining_pages with Some p -> p <= 0 | None -> false
    in
    let go =
      List.filter
        (fun tg ->
          match tg.unavailable () with
          | Some reason ->
              skip tg.shard.name reason;
              false
          | None when exhausted ->
              skip tg.shard.name "query budget exhausted before this shard";
              false
          | None when not (Breaker.allow tg.breaker) ->
              skip tg.shard.name "circuit open (cooling down)";
              false
          | None -> true)
        wave
    in
    if go <> [] then begin
      if floor > 0.0 then Metrics.add m_early (List.length go);
      let slice =
        {
          floor;
          deadline_ms = remaining_ms;
          page_budget =
            Option.map (fun p -> max 1 (p / List.length go)) remaining_pages;
        }
      in
      List.iter (fold floor)
        (List.combine go (dispatch ast slice (List.map (fun tg -> tg.shard) go)))
    end
  in
  let rec waves = function
    | [] -> ()
    | l ->
        let this, rest = split_at wave l in
        run_wave this;
        waves rest
  in
  waves targets;
  let degraded_shards = List.rev !tags in
  if degraded_shards <> [] then Metrics.incr m_degraded;
  {
    answers = !merged;
    k;
    degraded = degraded_shards <> [];
    degraded_shards;
    reports = List.rev !reports;
  }

let query t ?(k = 10) ?method_ ?(strict = false) ?deadline_ms ?page_budget nexi =
  Obs.Span.with_ ~name:"shard.query" @@ fun () ->
  let target info =
    {
      shard = info;
      breaker = breaker t info.name;
      unavailable = (fun () -> List.assoc_opt info.name t.blocked);
    }
  in
  let dispatch ast slice shards =
    List.map
      (fun info ->
        Obs.Span.with_ ~name:("shard.query." ^ info.name) @@ fun () ->
        Obs.Journal.set_label (Some ("shard:" ^ info.name ^ "|" ^ nexi));
        Fun.protect ~finally:(fun () -> Obs.Journal.set_label None) @@ fun () ->
        match
          (match t.shard_hook with Some f -> f info.name | None -> ());
          let index = Option.get (index_of t info.name) in
          evaluate_shard index ~scoring:t.scoring ~k ~strict ?method_ slice ast
        with
        | _, r -> Reply r
        | exception (Pager.Injected_crash _ as e) -> raise e
        | exception e -> Failed (Printexc.to_string e))
      shards
  in
  scatter ~k ~wave:1 ?deadline_ms ?page_budget ~dispatch
    (List.map target t.infos) nexi

let materialize t ?(kinds = [ Rpl.Rpl; Rpl.Erpl ]) ?rpl_prefix nexi =
  let ast = Nexi_parser.parse nexi in
  List.iter
    (fun a ->
      let _, sids, terms = translate a.a_index ast in
      if sids <> [] && terms <> [] then
        ignore (Rpl.build a.a_index ~scoring:t.scoring ~sids ~terms ~kinds ?rpl_prefix ()))
    t.attached

(* ---- health ---- *)

type health = {
  h_shard : string;
  h_base : int;
  h_docs : int;
  h_attached : bool;
  h_breaker : Breaker.state;
  h_note : string option;
}

let health t =
  List.map
    (fun info ->
      {
        h_shard = info.name;
        h_base = info.base;
        h_docs = info.docs;
        h_attached = List.exists (fun a -> a.a_info.name = info.name) t.attached;
        h_breaker = Breaker.state (breaker t info.name);
        h_note = List.assoc_opt info.name t.blocked;
      })
    t.infos

(* ---- rebalance ---- *)

let find_attached t name =
  match List.find_opt (fun a -> a.a_info.name = name) t.attached with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Shard.rebalance: %s is not an attached shard" name)

(* Documents of one shard in local docid order, with their stored XML
   source — the rebuild input. *)
let read_docs a =
  List.filter_map
    (fun (row : Tables.Documents.row) ->
      Option.map
        (fun xml -> (row.Tables.Documents.name, xml))
        (Index.source a.a_index row.Tables.Documents.docid))
    (Index.documents a.a_index)

(* Extent classification must not change across a rebuild, or scores
   would: new shards start from a clone of the source summary. *)
let summary_clone a = Summary.of_string (Summary.to_string (Index.summary a.a_index))

(* The rebalance protocol (build-op discipline, §DESIGN 6):
     Begin(tables = sources + new, rollback = new)   [fsynced]
     ... build each new shard directory ...
     Step(Put shardmap <new map>); Commit            [fsynced]
     install new map file (atomic rename)
     remove source directories
     End
   A crash before Commit rolls the half-built directories back; after
   Commit the map reinstalls idempotently and sources are re-removed.
   Every document is in exactly its pre- or post-rebalance shard at
   every hook point. *)
let do_rebalance t ~op ~sources ~added ~new_infos ~new_next_id =
  Metrics.incr m_rebalances;
  let source_names = List.map (fun a -> a.a_info.name) sources in
  let added_names = List.map (fun (name, _, _, _) -> name) added in
  (* Detach the sources now: their directories are about to become
     removable, and their docs are already materialized in [added]. *)
  List.iter (fun a -> Env.close a.a_env) sources;
  t.attached <-
    List.filter (fun a -> not (List.mem a.a_info.name source_names)) t.attached;
  let op_id = Manifest.fresh_op_id t.manifest in
  Manifest.append t.manifest
    (Manifest.Begin
       {
         op_id;
         op;
         tables = source_names @ added_names;
         rollback = added_names;
         generation = Manifest.next_generation t.manifest;
       });
  Manifest.sync t.manifest;
  fire t "rebalance:begin_logged";
  (try
     List.iter
       (fun (name, docs, summary, analyzer) ->
         let sdir = Filename.concat t.t_dir name in
         rm_rf sdir;
         let env = Env.on_disk sdir in
         ignore (Index.build ~env ~summary ~analyzer (List.to_seq docs));
         Env.close env;
         fire t ("rebalance:built:" ^ name))
       added
   with
  | Pager.Injected_crash _ as e -> raise e
  | e ->
      (* In-process failure before commit: resolve the op now rather
         than leaving it for recovery. *)
      List.iter (fun name -> rm_rf (Filename.concat t.t_dir name)) added_names;
      Manifest.append t.manifest
        (Manifest.Abort { op_id; note = Printexc.to_string e });
      Manifest.sync t.manifest;
      raise e);
  let map_json = Json.to_string (map_to_json { next_id = new_next_id; infos = new_infos }) in
  Manifest.append t.manifest
    (Manifest.Step { op_id; action = Manifest.Put { table = map_table; key = ""; value = map_json } });
  Manifest.append t.manifest (Manifest.Commit { op_id });
  Manifest.sync t.manifest;
  fire t "rebalance:committed";
  write_map_file t.t_dir map_json;
  fire t "rebalance:map_installed";
  List.iter (fun name -> rm_rf (Filename.concat t.t_dir name)) source_names;
  fire t "rebalance:cleaned";
  Manifest.append t.manifest (Manifest.End { op_id });
  Manifest.sync t.manifest;
  Manifest.compact t.manifest;
  t.infos <- sort_infos new_infos;
  t.next_id <- new_next_id;
  let still_blocked =
    List.filter (fun (name, _) -> List.exists (fun i -> i.name = name) t.infos) t.blocked
  in
  attach_all t still_blocked

let split t name =
  let src = find_attached t name in
  let info = src.a_info in
  if info.docs < 2 then
    invalid_arg (Printf.sprintf "Shard.split: %s holds fewer than two documents" name);
  let docs = read_docs src in
  let half = (List.length docs + 1) / 2 in
  let part1, part2 = split_at half docs in
  let n1 = shard_name t.next_id and n2 = shard_name (t.next_id + 1) in
  let i1 = { name = n1; base = info.base; docs = List.length part1 } in
  let i2 = { name = n2; base = info.base + List.length part1; docs = List.length part2 } in
  let analyzer = Index.analyzer src.a_index in
  let added =
    [ (n1, part1, summary_clone src, analyzer); (n2, part2, summary_clone src, analyzer) ]
  in
  let new_infos = i1 :: i2 :: List.filter (fun i -> i.name <> name) t.infos in
  do_rebalance t ~op:"shard_split" ~sources:[ src ] ~added ~new_infos
    ~new_next_id:(t.next_id + 2);
  (i1, i2)

let merge t name_a name_b =
  let a = find_attached t name_a and b = find_attached t name_b in
  if b.a_info.base <> a.a_info.base + a.a_info.docs then
    invalid_arg
      (Printf.sprintf "Shard.merge: %s and %s are not docid-adjacent" name_a name_b);
  let docs = read_docs a @ read_docs b in
  let name = shard_name t.next_id in
  let info = { name; base = a.a_info.base; docs = List.length docs } in
  (* One clone of the first source's summary; observing the second
     source's documents grows it exactly as a combined build would. *)
  let added = [ (name, docs, summary_clone a, Index.analyzer a.a_index) ] in
  let new_infos =
    info :: List.filter (fun i -> i.name <> name_a && i.name <> name_b) t.infos
  in
  do_rebalance t ~op:"shard_merge" ~sources:[ a; b ] ~added ~new_infos
    ~new_next_id:(t.next_id + 1);
  info
