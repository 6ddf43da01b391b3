(** Cross-table operation manifest: an append-only, CRC32-framed redo
    log ([MANIFEST.mf]) that makes multi-table index operations atomic.

    Each table is individually crash-safe (dual-header epoch commits),
    but operations like [add_document], a list build or an advisor plan
    touch several tables, and a crash between two table flushes would
    leave the environment mixed — e.g. a half-indexed document with
    stale RPLs still servable. The manifest records every such operation
    as

    {v Begin(op, tables, generation)
       Step*(physical action: put / remove / remove-prefix)
       Commit
       End v}

    {b File format.} An 8-byte magic ([TREXMF3\n]), then frames of
    [u32 length | u32 CRC32 | payload] ({!Trex_util.Framing}, the query
    journal's discipline). A payload is one or more records back to
    back in a compact binary encoding: a tag byte, then varints and
    length-prefixed strings ({!Trex_util.Codec}), keys and values as raw
    bytes. A frame's CRC covers all its records, so a frame is read
    whole or not at all: {!append_records} writes an operation's Begin,
    every Step and its Commit as {e one} frame (split between records
    only past [Framing.max_payload]), and recovery sees the whole
    operation or none of it. A torn tail is truncated at open, corrupt
    frames are skipped, and the valid prefix is never lost
    ([manifest.torn_tails] / [manifest.corrupt_records] count what the
    sweep found). [manifest.appends], [manifest.bytes] and
    [manifest.fsyncs] count the frames written, their bytes and the
    fsyncs spent on them.

    {b One version.} The magic names the format's version. A file
    whose first 8 bytes are a whole [TREXMF?\n] magic other than this
    build's — an older version or a newer one — is refused by
    {!open_file} with {!Unsupported_format}, untouched: no build reads
    a format but its own, and an environment in another one is rebuilt
    from its documents. A torn or empty magic is restarted like any
    foreign file.

    {b One commit rule} ([Env.run_logged_op]): every table write is
    first recorded as a [Step] holding the absolute post-state bytes,
    and the op's frame is fsynced before any table is touched. A crash
    before that leaves the tables untouched, so an operation that never
    committed is only [Abort]ed; after it the steps replay idempotently
    (roll {e forward}). The [End] comes later, at the environment's
    next checkpoint ([Env.checkpoint]), once the tables are flushed.

    [End] (or [Abort]) marks the operation resolved; a [Begin] without
    either is {e pending} and is resolved by [Env] at open. Committed
    generations are numbered; the environment refuses to serve tables
    whose operation could not be replayed (see [Env.table_blocked]). *)

(** A physical, idempotent table action. [key]/[value]/[prefix] are raw
    B+tree bytes. *)
type action =
  | Put of { table : string; key : string; value : string }
  | Remove of { table : string; key : string }
  | Remove_prefix of { table : string; prefix : string }

type record =
  | Checkpoint of { generation : int; next_op_id : int }
      (** Written after compaction so generation numbers and op ids
          survive truncation of resolved history. *)
  | Begin of {
      op_id : int;
      op : string;  (** operation name, e.g. ["add_document"] *)
      tables : string list;  (** every table the operation touches *)
      generation : int;  (** the generation this op commits *)
    }
  | Step of { op_id : int; action : action }
  | Commit of { op_id : int }
  | Abort of { op_id : int; note : string }
      (** resolved without effect: the op never committed *)
  | End of { op_id : int }  (** resolved: all effects durable *)

(** How recovery must resolve a pending operation. *)
type status =
  | Roll_forward  (** [Commit] is durable: re-apply steps, finish *)
  | Roll_back  (** never committed, so it wrote no table: [Abort] it *)

type pending = {
  p_op_id : int;
  p_op : string;
  p_tables : string list;
  p_generation : int;
  p_status : status;
  p_steps : action list;  (** oldest first *)
}

exception Unsupported_format of { found : string option; expected : string }
(** An environment in a format this build does not read: the manifest
    magic at {!open_file}, or the index's [meta] [format] key at
    [Index.attach] ([found] is [None] when the key is absent). Its
    printer reads "environment format <found|none>, this build reads
    <expected>; rebuild it from its documents". *)

type t

val in_memory : unit -> t
(** Backed by nothing; used by memory environments so the op protocol
    is exercised uniformly (no durability, no recovery). *)

val open_file : string -> t
(** Open-or-create. Sweeps the whole file: corrupt frames are skipped
    and counted, a torn tail is truncated, and a foreign or torn magic
    restarts the file.
    @raise Unsupported_format, the file untouched, on another version's
    magic. *)

val path : t -> string option
val records : t -> record list
(** The records the open-time sweep recovered, oldest first. Records
    appended since are not retained. *)

val length : t -> int
(** Records in the manifest file, appended ones included (not frames). *)

val generation : t -> int
(** Highest committed generation (0 for a fresh manifest). *)

val next_generation : t -> int
(** The generation the next [Begin] should carry: one past the highest
    generation ever issued, committed or not. *)

val fresh_op_id : t -> int
(** Allocate the next operation id (monotonic across reopens). *)

val append : t -> record -> unit
(** [append_records t [r]]. *)

val append_records : t -> record list -> unit
(** Append the records as one frame in one write — several frames only
    if they pass [Framing.max_payload] — with no fsync (see {!sync}).
    Updates the derived state ({!generation}, {!pending}, ...) as the
    records imply.
    @raise Invalid_argument if a single record passes the frame limit. *)

val sync : t -> unit

val pending : t -> pending list
(** Operations with a [Begin] but neither [End] nor [Abort], oldest
    first — what recovery must resolve. *)

val compact : t -> unit
(** When nothing is pending, truncate resolved history down to a
    {!Checkpoint} carrying the generation and op counter. A no-op if
    any operation is pending or the file already holds a single record.
    Not synced: the next {!sync} or {!close} makes it durable. A crash
    before then leaves the old file, whose operations replay
    idempotently, or an empty one that restarts the counters; every
    operation either held is durable in its tables, since only resolved
    history is compacted. *)

val close : t -> unit

val abort : t -> unit
(** Test hook: drop the handle without the closing fsync, as a crashed
    process would. *)
