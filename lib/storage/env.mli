(** Storage environment: a namespace of B+tree tables.

    Plays the role BerkeleyDB plays in the paper — each indexed table
    ([Elements], [PostingLists], [RPLs], [ERPLs], ...) is one B+tree,
    either file-backed inside a directory or in memory. Disk usage per
    table is observable because the self-management layer optimizes
    index choice under a disk budget. *)

type t

val in_memory : ?page_size:int -> unit -> t

val on_disk :
  ?page_size:int -> ?cache_pages:int -> ?replay:bool -> ?journal:bool -> string -> t
(** [on_disk dir] opens the environment in [dir]; each table lives in
    [dir/<name>.tbl]. A missing [dir] is created with the first file
    written into it (a table, the manifest or the journal), so an open
    that writes nothing leaves it missing. Existing table files are
    re-attached lazily by {!table}. Stale [*.compact-tmp.tbl] leftovers from a compaction that
    crashed before its atomic rename are deleted (the original table is
    intact in that case).

    An existing operation manifest ([MANIFEST.mf]) is swept and — with
    [replay] (default true) — replayed: operations that committed but
    never finished roll forward, uncommitted ones (which wrote no table)
    are aborted (see {!Manifest} and {!manifest_resolutions}). A table such an operation
    writes whose creation never committed (no root) is reinitialised
    empty before it rolls forward. [~replay:false] defers replay (used
    by {!open_with_recovery}, which must repair table headers first).
    [~journal:false] leaves an existing query journal unread, for an
    open that never journals (the sweep then happens at whichever open
    reads it).
    @raise Manifest.Unsupported_format, the manifest untouched and no
    journal or table opened, when the manifest is of another format
    version. *)

val dir : t -> string option
(** The environment's directory; [None] for memory-backed envs. *)

val table : t -> string -> Bptree.t
(** Create-or-attach. Table names must match [[A-Za-z0-9_.-]+].
    @raise Pager.Corruption when an existing table file fails header
    validation — use {!open_with_recovery} to fall back. *)

val has_table : t -> string -> bool
val drop_table : t -> string -> unit
(** Delete the table without flushing it: the open handle (if any) is
    aborted, the backing file deleted and the directory fsynced. The
    next {!table} recreates it empty. A no-op when absent. *)

val quarantine_table : t -> string -> unit
(** {!drop_table} for a suspect table, counted in [env.quarantines];
    redundant index tables (RPLs/ERPLs) are then rebuilt by the
    self-management layer. *)

val table_names : t -> string list

val table_bytes : t -> string -> int
(** Bytes of storage held by the table (pages * page size); 0 when
    absent. *)

val compact_table : ?faults:Pager.fault list -> t -> string -> unit
(** Rebuild the table into freshly bulk-loaded pages, releasing the
    space dead entries and dropped lists still hold (B+trees never
    shrink in place). On disk the table file is atomically replaced
    (temp file synced before a rename, directory fsynced after); open
    cursors into the old tree are invalidated. Starts with a
    {!checkpoint}. A no-op when the table does not exist.

    [faults] (test hook) arms a {!Pager.fault} plan on the temp-file
    pager so the crash matrix can cover the compaction window; on an
    injected crash the temp pager is aborted and the exception
    re-raised, leaving the original table intact plus a stale
    [*.compact-tmp.tbl] for {!on_disk} to sweep. *)

val total_bytes : t -> int

val io_stats : t -> (string * Pager.stats) list
(** Per-open-table pager statistics, including the
    [storage.checksum_failures] and [storage.recoveries] counters
    ({!Pager.stats} fields [checksum_failures]/[recoveries]). *)

val flush : ?sync:bool -> t -> unit
(** {!checkpoint}, then flush every open table; [~sync:true] makes each
    a durable commit point (see {!Pager.flush}). *)

val close : t -> unit
(** {!checkpoint}, then close every open table, the manifest and the
    query journal (if open). *)

(** {1 Query journal}

    One {!Trex_obs.Journal} per environment: file-backed under the env
    directory ([dir/query_journal.qj]) for disk envs, memory-backed
    otherwise. {!on_disk} (unless [~journal:false]) sweeps an existing
    journal file eagerly, so a
    torn or corrupt tail left by a crash is repaired at open (counted
    in [journal.torn_tails] / [journal.corrupt_records]) rather than on
    first use. *)

val journal : t -> Trex_obs.Journal.t
(** Find-or-open the environment's query journal. *)

val journal_path : t -> string option
(** Where the journal lives; [None] for memory-backed envs. *)

val has_journal : t -> bool
(** Whether a journal is open or its backing file exists — i.e.
    whether {!journal} would return any history. *)

(** {1 Verification & recovery} *)

type table_report = {
  table : string;
  ok : bool;  (** checksum sweep and structural verify both clean *)
  pages : int;  (** pages reachable from the root *)
  entries : int;
  problems : string list;
  notes : string list;  (** informational (e.g. recovery summary) *)
  recovered : bool;  (** opened via header-epoch fallback or reinit *)
}

val verify : t -> table_report list
(** For every table: physical checksum sweep of all pages plus
    {!Bptree.verify}. Tables that cannot even be opened are reported
    with [ok = false] rather than raising. Read-only. *)

val verify_table : t -> string -> table_report
(** {!verify} for a single table; also used as the half-open probe
    before a breaker closes. *)

val open_with_recovery :
  ?page_size:int -> ?cache_pages:int -> string -> t * table_report list
(** Open every table in [dir], falling back to the older header epoch
    where the newest slot is damaged ({!Pager.open_with_recovery}), and
    reinitializing tables whose creation never committed. Returns the
    env with all tables attached plus a verification report per table. *)

(** {1 Circuit breakers}

    One lazily-created {!Trex_resilience.Breaker} per table. The query
    layer trips a table's breaker when it observes [Pager.Corruption]
    there; [Strategy.available]/[choose] consult {!table_available} so
    planning routes around quarantined tables, and
    [Autopilot.maybe_heal] rebuilds + probes before closing. *)

val breaker : t -> string -> Trex_resilience.Breaker.t
(** Find or create the table's breaker. *)

val breaker_states : t -> (string * Trex_resilience.Breaker.state) list
(** Every breaker that exists (i.e. every table that ever failed),
    sorted by table name. *)

val table_available : t -> string -> bool
(** Whether queries could rely on the table now: true when it is not
    manifest-blocked and has no breaker, or its breaker is
    {!Trex_resilience.Breaker.ready}. Planning-time check — never
    consumes the half-open probe slot. *)

val admit_table : t -> string -> bool
(** Consuming admission for a caller about to touch the table: like
    {!table_available}, but an admitted caller on a half-open breaker
    takes the single probe slot ({!Trex_resilience.Breaker.allow}) and
    must resolve it with {!note_table_success}, {!fail_table} or
    {!trip_table}. *)

val table_probing : t -> string -> bool
(** The table's breaker has an unresolved half-open probe in flight. *)

val trip_table : t -> string -> reason:string -> unit
(** Open the table's breaker immediately. *)

val fail_table : t -> string -> reason:string -> unit
(** Count a failure with the table's breaker (re-opens a half-open
    probe; no-op when the table never failed before). *)

val note_table_success : t -> string -> unit
(** Record a successful use; closes a half-open breaker. *)

(** {1 Operation manifest}

    One {!Manifest} per environment ([dir/MANIFEST.mf]; memory-backed
    for {!in_memory}) makes multi-table operations atomic, under one
    commit rule (see {!Manifest} for the full protocol): every
    multi-table change is a {!run_logged_op}, its writes recorded as
    idempotent physical steps and fsynced before any table is touched;
    table flushes wait for the next {!checkpoint}. [add_document], list
    builds and drops, advisor plans and the shard map all write this
    way.

    Replay happens at open ({!on_disk} / {!open_with_recovery});
    outcomes are exposed via {!manifest_resolutions} and the
    [manifest.rolled_forward] / [manifest.rolled_back] /
    [manifest.unresolved] counters. Tables of an operation that could
    not be resolved are {e blocked} ({!table_blocked}) so query
    planning never reads an uncommitted generation. *)

val manifest : t -> Manifest.t
(** Find-or-open the environment's manifest. *)

val manifest_path : t -> string option
(** Where the manifest lives; [None] for memory-backed envs. *)

val generation : t -> int
(** Highest committed index generation (0 when no manifest exists). *)

val table_blocked : t -> string -> bool
(** True when the table belongs to a pending manifest operation that
    recovery could not resolve — its contents may be from an
    uncommitted generation and must not be served. *)

(** Outcome of resolving one pending operation during manifest replay. *)
type resolution = {
  res_op_id : int;
  res_op : string;  (** operation name from its [Begin] record *)
  res_tables : string list;
  res_outcome : string;  (** e.g. ["rolled forward"], ["rolled back"] *)
  res_ok : bool;  (** false when the op stayed pending (unresolvable) *)
}

val manifest_resolutions : t -> resolution list
(** What the last replay did, oldest first; empty when the manifest had
    nothing pending. *)

val manifest_unresolved : t -> int
(** Operations the last replay failed to resolve (their tables are
    blocked); [verify] exits 2 in the CLI when this is non-zero. *)

val run_logged_op :
  t -> op:string -> steps:Manifest.action list -> unit -> unit
(** Redo-logged operation. Its [Begin], every [Step] and its [Commit]
    go down as one manifest frame, in one write, and the fsync that
    follows is the durability point: once it returns, a crash anywhere
    rolls the operation forward at the next open. Only then are the
    steps applied, in memory — each maximal run of puts as one sorted
    batch per table ({!Bptree.insert_batch}) — and the tables' flushes
    and the op's [End] wait for the next {!checkpoint}. Steps must be
    physical and idempotent: absolute post-state values, not deltas.
    An empty step list writes nothing.

    An apply that raises (e.g. {!Pager.Corruption} in a damaged table)
    re-raises with the op still committed: the op is applied again
    before the next operation is logged and before a checkpoint Ends
    any, as replay at open would, so no operation is ever Ended ahead of
    an older one its tables do not hold (each raises while that apply
    still fails). *)

val checkpoint_bound : int
(** 32: the unended redo-logged operations at which {!run_logged_op}
    checkpoints on its own. It bounds the redo a crash replays and the
    manifest the ops fill between checkpoints. *)

val checkpoint : t -> unit
(** Make every redo-logged operation since the last checkpoint durable
    in its tables: sync-flush each table they wrote, then append one
    frame of [End] records; with nothing left pending, the manifest is
    then compacted to a single record ({!Manifest.compact}). It first
    applies again an operation whose apply raised ({!run_logged_op}),
    and raises, Ending nothing, while that still fails. A no-op when no
    operation waits. A checkpoint runs

    - in {!flush}, {!close} and {!compact_table}, and before and after
      every list build ([Rpl.build]);
    - in {!run_logged_op}, once {!checkpoint_bound} operations wait, or
      once a table the op wrote holds as many pinned dirty pages
      ({!Pager.pinned_pages}) as its cache bound;
    - at open, after replay rolled operations forward. *)

val set_op_hook : (string -> unit) option -> unit
(** Test hook fired at every operation sequence point, with labels like
    ["op:add_document:planned"], ["op:rpl_build:committed"],
    ["op:rpl_drop:applied"], ["checkpoint:flushed:postings"],
    ["checkpoint:ended"]. The crash
    matrix raises {!Pager.Injected_crash} from here. *)

val abort : t -> unit
(** Test hook: abandon the environment as a crashed process would —
    abort every pager (no flush), drop journal and manifest handles
    without their closing appends. *)
