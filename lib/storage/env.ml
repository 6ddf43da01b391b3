module Metrics = Trex_obs.Metrics
module Journal = Trex_obs.Journal
module Breaker = Trex_resilience.Breaker

let m_table_opens = Metrics.counter "env.table_opens"
let m_compactions = Metrics.counter "env.compactions"
let m_quarantines = Metrics.counter "env.quarantines"
let m_dir_fsyncs = Metrics.counter "env.dir_fsyncs"
let m_rolled_forward = Metrics.counter "manifest.rolled_forward"
let m_rolled_back = Metrics.counter "manifest.rolled_back"
let m_unresolved = Metrics.counter "manifest.unresolved"

type backend = Mem | Disk of { dir : string; cache_pages : int }

type resolution = {
  res_op_id : int;
  res_op : string;
  res_tables : string list;
  res_outcome : string;
  res_ok : bool;
}

type t = {
  backend : backend;
  page_size : int;
  tables : (string, Bptree.t) Hashtbl.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable journal : Journal.t option;
  mutable manifest : Manifest.t option;
  (* Tables named by a manifest operation that is still pending after
     replay (an unresolvable op): queries must not rely on them. *)
  blocked : (string, unit) Hashtbl.t;
  mutable resolutions : resolution list;
  (* Redo-logged operations whose Commit is durable but whose End waits
     for the next {!checkpoint}, newest first, and the tables they
     wrote. *)
  mutable unended : int list;
  mutable unflushed : string list;
  (* The committed operation whose apply raised: it is applied again
     before a later operation is logged or any is Ended, so none is
     Ended ahead of an older one the tables do not hold. *)
  mutable unapplied : (int * string list * Manifest.action list) option;
}

let tmp_suffix = ".compact-tmp"
let journal_file = "query_journal.qj"
let manifest_file = "MANIFEST.mf"

(* A crash between building a compaction temp file and the atomic rename
   leaves "<name>.compact-tmp.tbl" behind; the original table is intact,
   so the leftover is garbage to sweep at open. *)
let cleanup_stale_tmp dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f (tmp_suffix ^ ".tbl") then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try
         Unix.fsync fd;
         Metrics.incr m_dir_fsyncs
       with Unix.Unix_error _ -> ());
      Unix.close fd

let in_memory ?(page_size = 8192) () =
  {
    backend = Mem;
    page_size;
    tables = Hashtbl.create 8;
    breakers = Hashtbl.create 8;
    journal = None;
    manifest = None;
    blocked = Hashtbl.create 4;
    resolutions = [];
    unended = [];
    unflushed = [];
    unapplied = None;
  }

(* Defined below (it needs [table]/[quarantine_table]); stored in a ref
   so [on_disk] can replay the manifest it just opened. *)
let replay_ref : (t -> unit) ref = ref (fun _ -> ())

(* The directory appears with the first file written into it, so an
   open that writes nothing leaves a missing directory missing. *)
let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let on_disk ?(page_size = 8192) ?(cache_pages = 4096) ?(replay = true) ?(journal = true)
    dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      invalid_arg (Printf.sprintf "Env.on_disk: %s is not a directory" dir);
    cleanup_stale_tmp dir
  end;
  let env =
    {
      backend = Disk { dir; cache_pages };
      page_size;
      tables = Hashtbl.create 8;
      breakers = Hashtbl.create 8;
      journal = None;
      manifest = None;
      blocked = Hashtbl.create 4;
      resolutions = [];
      unended = [];
      unflushed = [];
      unapplied = None;
    }
  in
  (* An existing operation manifest is swept at open, first: one of
     another format version refuses the environment before anything
     else is opened. *)
  if Sys.file_exists (Filename.concat dir manifest_file) then
    env.manifest <- Some (Manifest.open_file (Filename.concat dir manifest_file));
  (* Same for the query journal, like stale compaction temp files: a
     torn or corrupt tail from a crash is repaired here rather than on
     the first journaled query. *)
  if journal && Sys.file_exists (Filename.concat dir journal_file) then
    env.journal <- Some (Journal.open_file (Filename.concat dir journal_file));
  (* Unless the caller defers to run table recovery first
     ({!open_with_recovery}), pending operations are resolved right
     here so a reopened environment never serves the middle of a
     multi-table operation. *)
  if replay && env.manifest <> None then !replay_ref env;
  env

let dir t = match t.backend with Mem -> None | Disk { dir; _ } -> Some dir

let journal_path t =
  match t.backend with
  | Mem -> None
  | Disk { dir; _ } -> Some (Filename.concat dir journal_file)

let journal t =
  match t.journal with
  | Some j -> j
  | None ->
      let j =
        match journal_path t with
        | None -> Journal.in_memory ()
        | Some path ->
            ensure_dir (Filename.dirname path);
            Journal.open_file path
      in
      t.journal <- Some j;
      j

let has_journal t =
  t.journal <> None
  || match journal_path t with None -> false | Some p -> Sys.file_exists p

let manifest_path t =
  match t.backend with
  | Mem -> None
  | Disk { dir; _ } -> Some (Filename.concat dir manifest_file)

let manifest t =
  match t.manifest with
  | Some m -> m
  | None ->
      let m =
        match manifest_path t with
        | None -> Manifest.in_memory ()
        | Some path ->
            ensure_dir (Filename.dirname path);
            Manifest.open_file path
      in
      t.manifest <- Some m;
      m

let generation t = match t.manifest with Some m -> Manifest.generation m | None -> 0
let table_blocked t name = Hashtbl.mem t.blocked name
let manifest_resolutions t =
  List.sort (fun a b -> compare a.res_op_id b.res_op_id) t.resolutions

let manifest_unresolved t =
  List.length (List.filter (fun r -> not r.res_ok) t.resolutions)

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let path_of dir name = Filename.concat dir (name ^ ".tbl")

let table t name =
  if not (valid_name name) then invalid_arg ("Env.table: bad name " ^ name);
  match Hashtbl.find_opt t.tables name with
  | Some tree -> tree
  | None ->
      let tree =
        match t.backend with
        | Mem -> Bptree.create (Pager.create_memory ~page_size:t.page_size ())
        | Disk { dir; cache_pages } ->
            let path = path_of dir name in
            if Sys.file_exists path then
              Bptree.attach (Pager.open_file ~cache_pages path)
            else begin
              ensure_dir dir;
              Bptree.create
                (Pager.create_file ~page_size:t.page_size ~cache_pages path)
            end
      in
      Hashtbl.add t.tables name tree;
      Metrics.incr m_table_opens;
      tree

(* A table file whose creation never reached a commit has no root: the
   table is logically empty, and an empty one replaces it. *)
let reinit_rootless ~page_size ~cache_pages path pager =
  Pager.abort pager;
  let fresh = Bptree.create (Pager.create_file ~page_size ~cache_pages path) in
  Pager.flush ~sync:true (Bptree.pager fresh);
  fresh

(* Replay's attach of a table a committed op writes. A checkpoint
   commits a table's root before it Ends any op that wrote it, so every
   write to a table with no committed root is in an op being replayed:
   the table is reinitialised empty, then rolled forward. *)
let attach_for_replay t name =
  match t.backend with
  | Disk { dir; cache_pages }
    when (not (Hashtbl.mem t.tables name)) && Sys.file_exists (path_of dir name) ->
      let path = path_of dir name in
      let pager = Pager.open_file ~cache_pages path in
      let tree =
        match Bptree.attach pager with
        | tree -> tree
        | exception Pager.Corruption _ ->
            reinit_rootless ~page_size:t.page_size ~cache_pages path pager
      in
      Hashtbl.add t.tables name tree;
      Metrics.incr m_table_opens
  | _ -> ()

let has_table t name =
  Hashtbl.mem t.tables name
  ||
  match t.backend with
  | Mem -> false
  | Disk { dir; _ } -> Sys.file_exists (path_of dir name)

(* The open handle is aborted, not closed: flushing pages about to be
   deleted is wasted I/O, and on a suspect pager possibly harmful. *)
let drop_table t name =
  (match Hashtbl.find_opt t.tables name with
  | Some tree ->
      Pager.abort (Bptree.pager tree);
      Hashtbl.remove t.tables name
  | None -> ());
  match t.backend with
  | Mem -> ()
  | Disk { dir; _ } ->
      let path = path_of dir name in
      if Sys.file_exists path then begin
        Sys.remove path;
        (* Make the unlink durable: without the directory fsync a crash
           can resurrect the deleted (possibly corrupt) table file. *)
        fsync_dir dir
      end

(* ---- circuit breakers ---- *)

let breaker t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let b = Breaker.create name in
      Hashtbl.add t.breakers name b;
      b

let breaker_states t =
  Hashtbl.fold (fun name b acc -> (name, Breaker.state b) :: acc) t.breakers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Breakers are created lazily on the first failure, so a table with no
   breaker has never misbehaved and is trivially available. A table
   named by an unresolved manifest operation is never available: its
   contents belong to an uncommitted generation. *)
let table_available t name =
  (not (Hashtbl.mem t.blocked name))
  &&
  match Hashtbl.find_opt t.breakers name with
  | None -> true
  | Some b -> Breaker.ready b

(* Consuming admission: an open breaker past its cooldown (or an idle
   half-open one) hands this caller the single probe slot, which the
   caller must resolve via [note_table_success] or [fail_table] /
   [trip_table]. Planning uses [table_available] and never consumes. *)
let admit_table t name =
  (not (Hashtbl.mem t.blocked name))
  &&
  match Hashtbl.find_opt t.breakers name with
  | None -> true
  | Some b -> Breaker.allow b

let table_probing t name =
  match Hashtbl.find_opt t.breakers name with
  | None -> false
  | Some b -> Breaker.probing b

let trip_table t name ~reason = Breaker.trip (breaker t name) ~reason

let fail_table t name ~reason =
  match Hashtbl.find_opt t.breakers name with
  | None -> ()
  | Some b -> Breaker.record_failure b ~reason

let note_table_success t name =
  match Hashtbl.find_opt t.breakers name with
  | None -> ()
  | Some b -> Breaker.record_success b

(* Drop a suspect table without trusting its contents. [table]
   recreates it empty; the self-management layer rebuilds redundant
   lists from the workload. *)
let quarantine_table t name =
  Metrics.incr m_quarantines;
  drop_table t name

let table_names t =
  let open_names = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] in
  let disk_names =
    match t.backend with
    | Mem -> []
    | Disk { dir; _ } when not (Sys.file_exists dir) -> []
    | Disk { dir; _ } ->
        Sys.readdir dir |> Array.to_list
        |> List.filter_map (fun f ->
               if Filename.check_suffix f ".tbl" then
                 let name = Filename.chop_suffix f ".tbl" in
                 if Filename.check_suffix name tmp_suffix then None
                 else Some name
               else None)
  in
  List.sort_uniq String.compare (open_names @ disk_names)

let table_bytes t name =
  match Hashtbl.find_opt t.tables name with
  | Some tree ->
      let p = Bptree.pager tree in
      Pager.page_count p * Pager.page_size p
  | None -> (
      match t.backend with
      | Mem -> 0
      | Disk { dir; _ } ->
          let path = path_of dir name in
          if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0)

let total_bytes t =
  List.fold_left (fun acc n -> acc + table_bytes t n) 0 (table_names t)

(* ---- multi-table operations (manifest protocol) ---- *)

(* Test hook: called at every sequence point of the commit protocol
   with a point name ("op:<name>:<point>", "checkpoint:<point>"); a
   crash-matrix test raises {!Pager.Injected_crash} from it to stop the
   protocol cold at that exact boundary. *)
let op_hook : (string -> unit) option ref = ref None
let set_op_hook h = op_hook := h

let hook point = match !op_hook with Some f -> f point | None -> ()

let sync_table t name =
  if Hashtbl.mem t.tables name || has_table t name then
    Pager.flush ~sync:true (Bptree.pager (table t name))

(* Apply steps in order, each maximal run of Puts as one sorted batch
   per table ({!Bptree.insert_batch}: the last put of a key wins, as in
   sequence), the tables in the order of their first put: a list's rows
   go in before its catalog row, so an apply that fails part way in
   this process never advertises a partial list. *)
let apply_steps t steps =
  let put_batch = function
    | [] -> ()
    | puts ->
        let by_table = Hashtbl.create 8 and order = ref [] in
        List.iter
          (fun (name, kv) ->
            match Hashtbl.find_opt by_table name with
            | Some kvs -> Hashtbl.replace by_table name (kv :: kvs)
            | None ->
                order := name :: !order;
                Hashtbl.add by_table name [ kv ])
          (List.rev puts);
        List.iter
          (fun name ->
            Bptree.insert_batch (table t name) (List.rev (Hashtbl.find by_table name)))
          (List.rev !order)
  in
  (* [puts] is newest first. *)
  let rec go puts = function
    | Manifest.Put { table; key; value } :: rest -> go ((table, (key, value)) :: puts) rest
    | Manifest.Remove { table = name; key } :: rest ->
        put_batch puts;
        ignore (Bptree.remove (table t name) key);
        go [] rest
    | Manifest.Remove_prefix { table = name; prefix } :: rest ->
        put_batch puts;
        let tbl = table t name in
        let keys = ref [] in
        Bptree.iter_prefix tbl ~prefix (fun k _ -> keys := k :: !keys);
        List.iter (fun k -> ignore (Bptree.remove tbl k)) !keys;
        go [] rest
    | [] -> put_batch puts
  in
  go [] steps

let action_table (a : Manifest.action) =
  match a with
  | Manifest.Put { table; _ } | Manifest.Remove { table; _ }
  | Manifest.Remove_prefix { table; _ } ->
      table

let tables_of_steps steps =
  List.fold_left
    (fun acc a ->
      let tbl = action_table a in
      if List.mem tbl acc then acc else tbl :: acc)
    [] steps
  |> List.rev

let note_unended t op_id tables =
  t.unended <- op_id :: t.unended;
  List.iter
    (fun name -> if not (List.mem name t.unflushed) then t.unflushed <- name :: t.unflushed)
    tables

let apply_committed t (op_id, tables, steps) =
  apply_steps t steps;
  note_unended t op_id tables

(* Apply again the committed operation whose apply raised in this
   process, as replay at open would. *)
let catch_up t =
  Option.iter
    (fun op ->
      apply_committed t op;
      t.unapplied <- None)
    t.unapplied

let checkpoint_bound = 32

(* Make every unended redo-logged operation durable in its tables
   (after applying again one whose apply raised): sync-flush the tables
   they wrote, then End them all in one frame, and
   compact resolved history away. The End and the compaction need no
   fsync of their own: a crash that loses them replays the ops' steps,
   which are idempotent, over tables that already hold them. *)
let checkpoint t =
  catch_up t;
  match (t.manifest, t.unended) with
  | None, _ | _, [] -> ()
  | Some m, unended ->
      List.iter
        (fun name ->
          sync_table t name;
          hook ("checkpoint:flushed:" ^ name))
        (List.rev t.unflushed);
      Manifest.append_records m
        (List.rev_map (fun op_id -> Manifest.End { op_id }) unended);
      t.unended <- [];
      t.unflushed <- [];
      if Manifest.pending m = [] then Manifest.compact m;
      hook "checkpoint:ended"

let compact_table ?faults t name =
  if has_table t name then begin
    checkpoint t;
    Metrics.incr m_compactions;
    let tree = table t name in
    let entries = ref [] in
    Bptree.iter tree (fun k v -> entries := (k, v) :: !entries);
    let entries = List.rev !entries in
    match t.backend with
    | Mem ->
        let fresh =
          Bptree.bulk_load (Pager.create_memory ~page_size:t.page_size ()) (List.to_seq entries)
        in
        Pager.close (Bptree.pager tree);
        Hashtbl.replace t.tables name fresh
    | Disk { dir; cache_pages } ->
        let tmp = path_of dir (name ^ tmp_suffix) in
        let pager = Pager.create_file ~page_size:t.page_size ~cache_pages tmp in
        (* [faults] targets the temp-file pager so the crash matrix can
           cover the compaction window; a crash there must leave the
           original table untouched and only the swept temp file behind. *)
        (match faults with
        | Some fs -> ignore (Pager.create_faulty ~faults:fs pager)
        | None -> ());
        (try
           ignore (Bptree.bulk_load pager (List.to_seq entries));
           (* close syncs, so the temp file is fully durable before the
              rename publishes it; the directory fsync makes the rename
              itself survive a crash. *)
           Pager.close pager
         with e ->
           Pager.abort pager;
           raise e);
        Pager.close (Bptree.pager tree);
        Hashtbl.remove t.tables name;
        Sys.rename tmp (path_of dir name);
        fsync_dir dir;
        ignore (table t name)
  end

let cache_full t name =
  match Hashtbl.find_opt t.tables name with
  | Some tree ->
      let p = Bptree.pager tree in
      Pager.pinned_pages p >= Pager.cache_pages p
  | None -> false

(* Redo-logged operation: the Begin, every write (absolute post-state
   bytes) and the Commit go down as one manifest frame, and its fsync is
   the durability point. A crash before it leaves the tables exactly at
   the pre-operation state; after it, replaying the steps — pure sets
   and removes, hence idempotent — repairs any table. The tables are
   then written in memory only; a checkpoint flushes them and Ends the
   operation. An empty step list writes nothing. *)
let run_logged_op t ~op ~steps () =
  if steps <> [] then begin
    catch_up t;
    let m = manifest t in
    let tables = tables_of_steps steps in
    let op_id = Manifest.fresh_op_id m in
    hook (Printf.sprintf "op:%s:planned" op);
    Manifest.append_records m
      ((Manifest.Begin { op_id; op; tables; generation = Manifest.next_generation m }
       :: List.map (fun a -> Manifest.Step { op_id; action = a }) steps)
      @ [ Manifest.Commit { op_id } ]);
    Manifest.sync m;
    hook (Printf.sprintf "op:%s:committed" op);
    let committed = (op_id, tables, steps) in
    (try apply_committed t committed
     with e ->
       t.unapplied <- Some committed;
       raise e);
    hook (Printf.sprintf "op:%s:applied" op);
    if List.length t.unended >= checkpoint_bound || List.exists (cache_full t) tables then
      checkpoint t
  end

(* Resolve every pending manifest operation: committed ones roll
   forward (replay steps, then one checkpoint flushes and Ends them all);
   an uncommitted one wrote no table, so it is only Aborted.
   An op that cannot be resolved — e.g. its table raises
   [Pager.Corruption] during replay — stays pending and its tables are
   blocked from query planning. *)
let replay_manifest t =
  match t.manifest with
  | None -> ()
  (* Nothing to resolve: opening writes nothing, so an environment
     another build refuses stays as it was. *)
  | Some m when Manifest.pending m = [] -> ()
  | Some m ->
      Hashtbl.reset t.blocked;
      t.resolutions <- [];
      let record (p : Manifest.pending) outcome ok =
        t.resolutions <-
          { res_op_id = p.p_op_id; res_op = p.p_op; res_tables = p.p_tables;
            res_outcome = outcome; res_ok = ok }
          :: t.resolutions
      in
      let unresolved (p : Manifest.pending) what e =
        Metrics.incr m_unresolved;
        List.iter (fun tbl -> Hashtbl.replace t.blocked tbl ()) p.p_tables;
        record p
          (Printf.sprintf "unresolved (%s failed: %s)" what (Printexc.to_string e))
          false
      in
      let forwarded =
        List.filter
          (fun (p : Manifest.pending) ->
            match p.p_status with
            | Manifest.Roll_forward -> (
                match
                  List.iter (attach_for_replay t) (tables_of_steps p.p_steps);
                  apply_committed t (p.p_op_id, p.p_tables, p.p_steps)
                with
                | () -> true
                | exception e ->
                    unresolved p "roll-forward" e;
                    false)
            | Manifest.Roll_back ->
                Manifest.append m
                  (Manifest.Abort { op_id = p.p_op_id; note = "never committed" });
                Manifest.sync m;
                Metrics.incr m_rolled_back;
                record p "rolled back" true;
                false)
          (Manifest.pending m)
      in
      (match checkpoint t with
      | () ->
          List.iter
            (fun p ->
              Metrics.incr m_rolled_forward;
              record p "rolled forward" true)
            forwarded
      | exception e ->
          t.unended <- [];
          t.unflushed <- [];
          List.iter (fun p -> unresolved p "roll-forward" e) forwarded);
      (* Fully resolved history is dead weight; shrink it to a
         checkpoint so the manifest never grows without bound. *)
      if Manifest.pending m = [] then Manifest.compact m

let () = replay_ref := replay_manifest

(* ---- verification & recovery ---- *)

type table_report = {
  table : string;
  ok : bool;
  pages : int;
  entries : int;
  problems : string list;
  notes : string list;
  recovered : bool;
}

let verify_tree name tree ~recovered ~notes =
  let checksum_problems =
    List.map
      (fun (page, detail) -> Printf.sprintf "page %d: %s" page detail)
      (Pager.verify_checksums (Bptree.pager tree))
  in
  let r = Bptree.verify tree in
  let problems = checksum_problems @ r.Bptree.problems in
  {
    table = name;
    ok = problems = [];
    pages = r.Bptree.pages;
    entries = r.Bptree.entries;
    problems;
    notes;
    recovered;
  }

let broken_report name ~recovered detail =
  { table = name; ok = false; pages = 0; entries = 0;
    problems = [ detail ]; notes = []; recovered }

let verify_table t name =
  match
    let tree = table t name in
    verify_tree name tree ~recovered:false ~notes:[]
  with
  | report -> report
  | exception Pager.Corruption { detail; page; _ } ->
      broken_report name ~recovered:false
        (if page >= 0 then Printf.sprintf "page %d: %s" page detail else detail)
  | exception Trex_resilience.Retry.Exhausted { name = op; attempts; _ } ->
      broken_report name ~recovered:false
        (Printf.sprintf "%s failed after %d attempts" op attempts)

let verify t = List.map (verify_table t) (table_names t)

let open_with_recovery ?(page_size = 8192) ?(cache_pages = 4096) dir =
  (* Table recovery must run before manifest replay: a table created
     mid-operation whose root never committed has to be reinitialized
     before roll-forward can write into it. *)
  let env = on_disk ~page_size ~cache_pages ~replay:false dir in
  let reports =
    List.map
      (fun name ->
        let path = path_of dir name in
        match Pager.open_with_recovery ~cache_pages path with
        | exception Pager.Corruption { detail; _ } ->
            broken_report name ~recovered:false detail
        | pager, (recovery : Pager.recovery) -> (
            let notes =
              if recovery.Pager.recovered then [ recovery.Pager.note ] else []
            in
            match Bptree.attach pager with
            | tree ->
                Hashtbl.replace env.tables name tree;
                verify_tree name tree ~recovered:recovery.Pager.recovered ~notes
            | exception Pager.Corruption _ ->
                (* Reinit it rather than leave an unopenable file. *)
                let fresh = reinit_rootless ~page_size ~cache_pages path pager in
                Hashtbl.replace env.tables name fresh;
                { table = name; ok = true; pages = 1; entries = 0;
                  problems = [];
                  notes = [ "reinitialized: no committed root" ];
                  recovered = true }))
      (table_names env)
  in
  replay_manifest env;
  (* Surface manifest resolutions on the reports of the tables each
     operation touched. *)
  let notes_for name =
    List.filter_map
      (fun r ->
        if List.mem name r.res_tables then
          Some (Printf.sprintf "manifest: op #%d %s %s" r.res_op_id r.res_op r.res_outcome)
        else None)
      (manifest_resolutions env)
  in
  let reports =
    List.map
      (fun r ->
        match notes_for r.table with
        | [] -> r
        | notes ->
            let ok = r.ok && not (table_blocked env r.table) in
            { r with ok; notes = r.notes @ notes })
      reports
  in
  (env, reports)

let io_stats t =
  Hashtbl.fold
    (fun name tree acc -> (name, Pager.stats (Bptree.pager tree)) :: acc)
    t.tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flush ?(sync = false) t =
  checkpoint t;
  Hashtbl.iter (fun _ tree -> Pager.flush ~sync (Bptree.pager tree)) t.tables

let close t =
  checkpoint t;
  Hashtbl.iter (fun _ tree -> Pager.close (Bptree.pager tree)) t.tables;
  Hashtbl.reset t.tables;
  (match t.manifest with
  | None -> ()
  | Some m ->
      (* Resolved history is dead weight; shed it here, not at the
         next open. *)
      if Manifest.pending m = [] then Manifest.compact m;
      Manifest.close m;
      t.manifest <- None);
  match t.journal with
  | None -> ()
  | Some j ->
      Journal.close j;
      t.journal <- None

(* Simulated process death for crash tests: every open pager is
   aborted (dirty cached pages vanish, the files keep whatever was last
   flushed) and the logs are dropped without their closing fsync. *)
let abort t =
  Hashtbl.iter (fun _ tree -> Pager.abort (Bptree.pager tree)) t.tables;
  Hashtbl.reset t.tables;
  t.unended <- [];
  t.unflushed <- [];
  t.unapplied <- None;
  (match t.manifest with
  | None -> ()
  | Some m ->
      Manifest.abort m;
      t.manifest <- None);
  match t.journal with
  | None -> ()
  | Some j ->
      Journal.close j;
      t.journal <- None
