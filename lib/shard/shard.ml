module Env = Trex_storage.Env
module Bptree = Trex_storage.Bptree
module Pager = Trex_storage.Pager
module Index = Trex_invindex.Index
module Tables = Trex_invindex.Tables
module Types = Trex_invindex.Types
module Summary = Trex_summary.Summary
module Alias = Trex_summary.Alias
module Nexi_parser = Trex_nexi.Parser
module Answer = Trex_topk.Answer
module Strategy = Trex_topk.Strategy
module Breaker = Trex_resilience.Breaker
module Obs = Trex_obs
module Json = Trex_obs.Json
module Metrics = Trex_obs.Metrics

let m_queries = Metrics.counter "shard.queries"
let m_degraded = Metrics.counter "shard.degraded_queries"
let m_skipped = Metrics.counter "shard.shards_skipped"
let m_early = Metrics.counter "shard.early_terminations"
let m_rebalances = Metrics.counter "shard.rebalances"
let m_stale_sweeps = Metrics.counter "supervisor.stale_sweeps"

let map_table = "shardmap"

type shard_info = { name : string; base : int; docs : int }
type map = { next_id : int; infos : shard_info list }

exception Not_a_coordinator of string
exception Map_unresolved of string

let () =
  Printexc.register_printer (function
    | Not_a_coordinator dir ->
        Some (Printf.sprintf "%s is not a shard coordinator directory (no shard map)" dir)
    | Map_unresolved dir ->
        Some
          (Printf.sprintf
             "%s: a shard map change could not be replayed; the map is unknown and \
              nothing was removed"
             dir)
    | _ -> None)

(* One attached (servable) shard. *)
type attached = { a_info : shard_info; a_env : Env.t; a_engine : Trex.t }

let a_index a = Trex.index a.a_engine

type t = {
  t_dir : string;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable next_id : int;
  mutable infos : shard_info list;  (** the full map, ascending base *)
  mutable attached : attached list;  (** servable shards, ascending base *)
  mutable blocked : (string * string) list;
  mutable shard_hook : (string -> unit) option;
  mutable op_hook : (string -> unit) option;
  journal : Obs.Journal.t Lazy.t;
}

let dir t = t.t_dir
let shards t = t.infos
let blocked t = t.blocked
let set_shard_hook t h = t.shard_hook <- h
let set_op_hook t h = t.op_hook <- h
let fire t point = match t.op_hook with Some f -> f point | None -> ()

let shard_name id = Printf.sprintf "shard-%03d" id

let is_shard_name entry =
  match String.split_on_char '-' entry with
  | [ "shard"; id ] -> id <> "" && String.for_all (fun c -> c >= '0' && c <= '9') id
  | _ -> false

let breaker t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let b = Breaker.create ("shard." ^ name) in
      Hashtbl.add t.breakers name b;
      b

let engine_of t name =
  Option.map
    (fun a -> a.a_engine)
    (List.find_opt (fun a -> a.a_info.name = name) t.attached)

let index_of t name = Option.map Trex.index (engine_of t name)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- the coordinator environment ----

   A coordinator directory is an [Env] whose [shardmap] table holds the
   shard map, one row (key [""], the map as JSON). Every map change is
   one redo-logged [Env.run_logged_op] with a single [Put] step, so a
   crash leaves the old map or the new one, and the next open replays
   the op like any other environment's. Nothing keeps the environment
   open between calls: create, open and rebalance each open and close
   it, so several readers of one directory in a process never share a
   handle. *)

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

(* Decided on the table's file, before any environment is opened, so a
   directory that is not a coordinator is refused as it was found. *)
let is_coordinator dir = Sys.file_exists (Filename.concat dir (map_table ^ ".tbl"))

(* Run [f] on the opened coordinator environment, then close it. A
   failure abandons it as a crash would: what [f] made durable stands,
   the rest is for the next open's replay. The journal is left unread:
   only a journaled query opens it ({!coordinator_journal}). *)
let with_coordinator dir f =
  let env = Env.on_disk ~journal:false dir in
  match f env with
  | v ->
      Env.close env;
      v
  | exception e ->
      Env.abort env;
      raise e

let commit_map dir ~op (m : map) =
  with_coordinator dir (fun env ->
      Env.run_logged_op env ~op
        ~steps:[ Put { table = map_table; key = ""; value = Json.to_string (map_to_json m) } ]
        ())

(* Where both shard dispatches journal their queries: the coordinator
   environment's journal file ([Env.journal]'s path), opened at the
   first journaled query without holding the environment open. *)
let coordinator_journal dir =
  lazy (Obs.Journal.open_file (Filename.concat dir "query_journal.qj"))

let close_journal j = if Lazy.is_val j then Obs.Journal.close (Lazy.force j)

(* ---- corpus-wide scoring statistics ----

   Rank identity needs every shard to score with statistics of the
   WHOLE corpus, and those statistics must not drift when a shard is
   quarantined or fails to attach — a lost shard may cost answers, but
   it must never change the scores of the answers the surviving shards
   produce. So each shard stores them in its own environment
   ([Index.pin_corpus]): computed at {!create} from the full document
   set, copied from the source shards by a rebalance (the corpus is
   unchanged), and read back by every attach. *)

(* A corpus's statistics: its [Index.stats] and each term's df. *)
let pin (stats, df) index =
  Index.pin_corpus index stats
    ~df:(fun token -> Option.value ~default:0 (Hashtbl.find_opt df token))

let sum_statistics indexes =
  let df = Hashtbl.create 4096 in
  List.iter
    (fun index ->
      Index.iter_terms index (fun token ~df:d ~cf:_ ->
          Hashtbl.replace df token
            (d + Option.value ~default:0 (Hashtbl.find_opt df token))))
    indexes;
  let sum field =
    List.fold_left (fun acc index -> acc + field (Index.stats index)) 0 indexes
  in
  (* Each slice's mean length times its element count rounds back to
     its exact length sum, so the corpus mean is bit for bit the one a
     single index over the corpus computes. *)
  let length_sum s =
    int_of_float
      (Float.round (s.Index.avg_element_length *. float_of_int s.Index.element_count))
  in
  let element_count = sum (fun s -> s.Index.element_count) in
  ( {
      Index.doc_count = sum (fun s -> s.Index.doc_count);
      total_bytes = sum (fun s -> s.Index.total_bytes);
      element_count;
      avg_element_length =
        (if element_count = 0 then 0.0
         else float_of_int (sum length_sum) /. float_of_int element_count);
      term_count = Hashtbl.length df;
      posting_count = sum (fun s -> s.Index.posting_count);
    },
    df )

(* The statistics pinned in rebalance sources: every source holds the
   same corpus stats, and each the corpus-wide df of its own terms. *)
let pinned_statistics indexes =
  let df = Hashtbl.create 4096 in
  List.iter
    (fun index ->
      Index.iter_terms index (fun token ~df:d ~cf:_ -> Hashtbl.replace df token d))
    indexes;
  (Index.scoring_stats (List.hd indexes), df)

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
  let remove path =
    match Sys.remove path with
    | () -> Metrics.incr m_stale_sweeps
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
    infos

(* ---- open / recovery ---- *)

(* The one way a coordinator's map is read: [Env]'s replay settles any
   map change a crash interrupted, then the directories are reconciled
   with the map. Every [shard-NNN] subdirectory the map does not name is
   a rebalance's leftover — half-built shards of an uncommitted change,
   or the sources of a committed one — and is removed, unless a
   directory the map names is missing: then nothing is removed, and the
   missing shard is blocked when it fails to attach. A replay that could
   not settle a map change leaves no map to trust, so nothing is read or
   removed and the environment is abandoned as found, for the next open
   to replay again. *)
let read_map dir =
  if not (is_coordinator dir) then raise (Not_a_coordinator dir);
  let map =
    with_coordinator dir (fun env ->
        if Env.manifest_unresolved env > 0 then raise (Map_unresolved dir);
        match Bptree.find (Env.table env map_table) "" with
        | Some json -> map_of_json (Json.parse json)
        | None -> raise (Not_a_coordinator dir))
  in
  let infos = sort_infos map.infos in
  if List.for_all (fun i -> Sys.file_exists (Filename.concat dir i.name)) infos then
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        if is_shard_name entry && Sys.is_directory path
           && not (List.exists (fun i -> i.name = entry) infos)
        then rm_rf path)
      (Sys.readdir dir);
  sweep_stale_worker_artifacts dir infos;
  { map with infos }

let attach_engine env =
  match
    let engine = Trex.attach ~env () in
    Index.require_pinned (Trex.index engine);
    engine
  with
  | engine -> engine
  | exception e ->
      Env.close env;
      raise e

(* (Re-)attach every servable shard of the map. Shards that fail to
   attach are quarantined, not fatal — the coordinator serves what it
   can and tags the rest. A shard without pinned statistics is one of
   them: scoring it with its own would be wrong, not partial. *)
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
          { a_info = info; a_env = env; a_engine = attach_engine env }
        with
        | a -> acc := a :: !acc
        | exception e -> blocked := !blocked @ [ (info.name, Printexc.to_string e) ]
      end)
    t.infos;
  t.attached <-
    List.sort (fun a b -> compare a.a_info.base b.a_info.base) (List.rev !acc);
  t.blocked <- blocked.contents

let load_map dir = (read_map dir).infos

let open_ dir =
  let map = read_map dir in
  let t =
    {
      t_dir = dir;
      breakers = Hashtbl.create 8;
      next_id = map.next_id;
      infos = map.infos;
      attached = [];
      blocked = [];
      shard_hook = None;
      op_hook = None;
      journal = coordinator_journal dir;
    }
  in
  attach_all t [];
  t

let close t =
  List.iter (fun a -> Env.close a.a_env) t.attached;
  t.attached <- [];
  close_journal t.journal

let abort t =
  List.iter (fun a -> Env.abort a.a_env) t.attached;
  t.attached <- [];
  close_journal t.journal

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
    ?(alias = Alias.identity) ?analyzer docs =
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
  (* Build every slice, then pin the full-corpus scoring statistics
     in each while all freshly built indexes are still open — they are
     computed once, here, and never from a possibly-partial set of
     shards. *)
  let built =
    List.map
      (fun (info, part) ->
        let env = Env.on_disk (Filename.concat dir info.name) in
        let summary = Summary.create ~alias summary_criterion in
        let index = Index.build ~env ~summary ?analyzer (List.to_seq part) in
        (env, index))
      slices
  in
  let corpus = sum_statistics (List.map snd built) in
  List.iter
    (fun (env, index) ->
      pin corpus index;
      Env.close env)
    built;
  commit_map dir ~op:"shard_create" { next_id = n; infos = List.map fst slices };
  open_ dir

(* ---- query: one scatter core, in-process and worker dispatches ---- *)

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
  fallbacks : Strategy.failover list;
}

type slice = { floor : float; deadline_ms : float option; page_budget : int option }

type reply = {
  local_answers : Answer.t;
  partial : bool;
  method_used : Strategy.method_ option;
  entries_read : int;
  elapsed_s : float;
  pages_used : int;
  fallbacks : Strategy.failover list;
}

type outcome = Reply of reply | Failed of string | Lost of string

type target = {
  shard : shard_info;
  breaker : Breaker.t;
  unavailable : unit -> string option;
}

let method_used r =
  match
    List.sort_uniq compare (List.filter_map (fun rep -> rep.r_method) r.reports)
  with
  | [ m ] -> Some m
  | _ -> None

(* A record's per-shard breakdown: each replying shard's evaluation
   time, and a marker for each shard that contributed no reply. *)
let breakdown r =
  List.map (fun rep -> ("shard:" ^ rep.r_shard, rep.r_elapsed_seconds *. 1e3)) r.reports
  @ List.sort_uniq compare
      (List.filter_map
         (fun (name, _) ->
           if List.exists (fun rep -> rep.r_shard = name) r.reports then None
           else Some ("lost:" ^ name, 0.0))
         r.degraded_shards)

let run_waves ~k ~wave ?deadline_ms ?page_budget ~dispatch targets nexi =
  if k < 1 then invalid_arg "k must be positive";
  Metrics.incr m_queries;
  let ast = Nexi_parser.parse nexi in
  let started = Trex_util.Stopclock.now () in
  let pages_spent = ref 0 in
  let merged = ref ([] : Answer.t) in
  let tags = ref [] in
  let reports = ref [] in
  let fallbacks = ref [] in
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
        fallbacks := !fallbacks @ r.fallbacks;
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
    fallbacks = !fallbacks;
  }

let scatter ~k ~wave ?deadline_ms ?page_budget ~span ?span_attrs ~journal ~dispatch
    targets nexi =
  let started = Obs.Journal.start_query () in
  let r =
    Obs.Span.with_ ~name:span ?attrs:span_attrs @@ fun () ->
    run_waves ~k ~wave ?deadline_ms ?page_budget ~dispatch targets nexi
  in
  Option.iter
    (fun started ->
      Obs.Journal.finish_query started (journal ()) ~label:nexi
        ~strategy:
          (match method_used r with
          | Some m -> Strategy.method_to_string m
          | None -> "mixed")
        ~k ~degraded:r.degraded ~fallbacks:(List.length r.fallbacks)
        ~breakdown:(breakdown r) ())
    started;
  r

(* The in-process dispatch, one shard per wave: [contain] turns an
   evaluation exception into the shard's outcome — or re-raises it. A
   shard's own top k is all it ships: the merge order is total, so an
   entry outside a shard's top k is outside the global top k too. *)
let scatter_in_process ~engine ~span ~journal ~contain ~k ?method_ ~strict
    ?deadline_ms ?page_budget targets nexi =
  let dispatch ast slice shards =
    List.map
      (fun info ->
        Obs.Span.with_ ~name:("shard.query." ^ info.name) @@ fun () ->
        match
          Trex.evaluate (engine info) ~k ~strict ?method_ ~floor:slice.floor
            ?deadline_ms:slice.deadline_ms ?page_budget:slice.page_budget ast
        with
        | { Trex.strategy = s; degraded = partial; pages_used; fallbacks; _ } ->
            Reply
              {
                local_answers = s.Strategy.answers;
                partial;
                method_used = Some s.Strategy.method_used;
                entries_read = s.Strategy.entries_read;
                elapsed_s = s.Strategy.elapsed_seconds;
                pages_used;
                fallbacks;
              }
        | exception e -> contain e)
      shards
  in
  scatter ~k ~wave:1 ?deadline_ms ?page_budget ~span ~journal ~dispatch targets nexi

let query t ?(k = 10) ?method_ ?(strict = false) ?deadline_ms ?page_budget nexi =
  let target info =
    {
      shard = info;
      breaker = breaker t info.name;
      unavailable = (fun () -> List.assoc_opt info.name t.blocked);
    }
  in
  (* The hook runs inside the contained evaluation, so a hook that
     raises loses the shard like a failing evaluation would. *)
  let engine info =
    (match t.shard_hook with Some f -> f info.name | None -> ());
    Option.get (engine_of t info.name)
  in
  let contain = function
    | Pager.Injected_crash _ as e -> raise e
    | e -> Failed (Printexc.to_string e)
  in
  scatter_in_process ~engine ~span:"shard.query"
    ~journal:(fun () -> Lazy.force t.journal)
    ~contain ~k ?method_ ~strict ?deadline_ms ?page_budget (List.map target t.infos)
    nexi

let query_env engine ?(k = 10) ?method_ ?(strict = false) ?deadline_ms ?page_budget
    nexi =
  (* Exceptions propagate, so the breaker never records a failure: it
     is there because every target has one. *)
  let shard = { name = "env"; base = 0; docs = 0 } in
  let target = { shard; breaker = Breaker.create "env"; unavailable = (fun () -> None) } in
  scatter_in_process
    ~engine:(fun _ -> engine)
    ~span:"query"
    ~journal:(fun () -> Env.journal (Index.env (Trex.index engine)))
    ~contain:raise ~k ?method_ ~strict ?deadline_ms ?page_budget [ target ] nexi

let materialize t ?kinds ?rpl_prefix nexi =
  List.iter
    (fun a -> ignore (Trex.materialize a.a_engine ?kinds ?rpl_prefix nexi))
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
        (Index.source (a_index a) row.Tables.Documents.docid))
    (Index.documents (a_index a))

(* Extent classification must not change across a rebuild, or scores
   would: new shards start from a clone of the source summary. *)
let summary_clone a = Summary.of_string (Summary.to_string (Index.summary (a_index a)))

(* The rebalance protocol:
     build each new shard directory         [old map: they are swept]
     commit the new map (one logged op)     [the durability point]
     remove the source directories          [new map: they are swept]
   Every document is in exactly its pre- or post-rebalance shard at
   every crash point: the recovering open reads whichever map is
   durable and sweeps the directories it does not name. *)
let do_rebalance t ~op ~sources ~added ~new_infos ~new_next_id =
  Metrics.incr m_rebalances;
  let source_names = List.map (fun a -> a.a_info.name) sources in
  (* Detach the sources now: their directories are about to become
     removable, and their docs and statistics are already read. *)
  let corpus = pinned_statistics (List.map a_index sources) in
  List.iter (fun a -> Env.close a.a_env) sources;
  t.attached <-
    List.filter (fun a -> not (List.mem a.a_info.name source_names)) t.attached;
  (try
     List.iter
       (fun (name, docs, summary, analyzer) ->
         let sdir = Filename.concat t.t_dir name in
         rm_rf sdir;
         let env = Env.on_disk sdir in
         pin corpus (Index.build ~env ~summary ~analyzer (List.to_seq docs));
         Env.close env;
         fire t ("rebalance:built:" ^ name))
       added
   with
  | Pager.Injected_crash _ as e -> raise e
  | e ->
      (* In-process failure before the commit: the old map stands, so
         its shards serve again and the half-built ones go now. *)
      List.iter (fun (name, _, _, _) -> rm_rf (Filename.concat t.t_dir name)) added;
      attach_all t t.blocked;
      raise e);
  commit_map t.t_dir ~op { next_id = new_next_id; infos = new_infos };
  fire t "rebalance:committed";
  List.iter (fun name -> rm_rf (Filename.concat t.t_dir name)) source_names;
  fire t "rebalance:cleaned";
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
  let analyzer = Index.analyzer (a_index src) in
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
  let added = [ (name, docs, summary_clone a, Index.analyzer (a_index a)) ] in
  let new_infos =
    info :: List.filter (fun i -> i.name <> name_a && i.name <> name_b) t.infos
  in
  do_rebalance t ~op:"shard_merge" ~sources:[ a; b ] ~added ~new_infos
    ~new_next_id:(t.next_id + 1);
  info
