(** Cross-table operation manifest: an append-only, CRC32-framed intent
    log ([MANIFEST.mf]) that makes multi-table index operations atomic.

    Each table is individually crash-safe (dual-header epoch commits),
    but operations like [add_document] or an advisor plan touch several
    tables, and a crash between two table flushes used to leave the
    environment mixed — e.g. a half-indexed document with stale RPLs
    still servable. The manifest records every such operation as

    {v Begin(op, tables, rollback, generation)
       Step*(physical action: put / remove / remove-prefix)
       Commit
       End v}

    with the same framing discipline as the query journal: an 8-byte
    magic, then frames of [u32 length | u32 CRC32 | JSON payload]. A
    torn tail is truncated at open, corrupt frames are skipped, and the
    valid prefix is never lost ([manifest.torn_tails] /
    [manifest.corrupt_records] count what the sweep found).

    Two commit disciplines share the format:

    - {b Redo-logged operations} ([Env.run_logged_op]): every table
      write is first recorded as a [Step] holding the absolute
      post-state bytes, the steps and the [Commit] are fsynced, and
      only then are the tables touched. A crash before [Commit] leaves
      the tables untouched (roll {e back} is a no-op); after [Commit]
      the steps replay idempotently (roll {e forward}).
    - {b Build operations} ([Env.begin_op]/[commit_op]): rebuildable
      redundant tables are written directly between [Begin] and
      [Commit]; the [rollback] list names the tables recovery must
      quarantine if the [Commit] record never became durable.

    [End] (or [Abort]) marks the operation resolved; a [Begin] without
    either is {e pending} and is replayed by [Env] at open. Committed
    generations are numbered; the environment refuses to serve
    redundant lists whose operation is still pending (see
    [Env.table_blocked]). *)

(** A physical, idempotent table action. [key]/[value]/[prefix] are raw
    B+tree bytes (hex-encoded on disk). *)
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
      rollback : string list;
          (** tables recovery quarantines if the op never committed *)
      generation : int;  (** the generation this op commits *)
    }
  | Step of { op_id : int; action : action }
  | Commit of { op_id : int }
  | Abort of { op_id : int; note : string }  (** resolved by roll-back *)
  | End of { op_id : int }  (** resolved: all effects durable *)

(** How recovery must resolve a pending operation. *)
type status =
  | Roll_forward  (** [Commit] is durable: re-apply steps, finish *)
  | Roll_back  (** never committed: quarantine [rollback] tables *)

type pending = {
  p_op_id : int;
  p_op : string;
  p_tables : string list;
  p_rollback : string list;
  p_generation : int;
  p_status : status;
  p_steps : action list;  (** oldest first *)
}

(** {1 Hex codec}

    Keys and values are raw B+tree bytes, so records carry them
    hex-encoded inside their JSON payload. *)

exception Bad_hex

val to_hex : string -> string
(** Lowercase, two digits per byte. *)

val of_hex : string -> string
(** Inverse of {!to_hex}; accepts either case.
    @raise Bad_hex on odd length or a non-hex digit. *)

type t

val in_memory : unit -> t
(** Backed by nothing; used by memory environments so the op protocol
    is exercised uniformly (no durability, no recovery). *)

val open_file : string -> t
(** Open-or-create. Sweeps the whole file: corrupt frames are skipped
    and counted, a torn tail is truncated, a foreign file is reset. *)

val path : t -> string option
val records : t -> record list
(** The records the open-time sweep recovered, oldest first. Records
    appended since are not retained. *)

val length : t -> int
(** Records in the manifest file, appended ones included. *)

val generation : t -> int
(** Highest committed generation (0 for a fresh manifest). *)

val next_generation : t -> int
(** The generation the next [Begin] should carry: one past the highest
    generation ever issued, committed or not. *)

val fresh_op_id : t -> int
(** Allocate the next operation id (monotonic across reopens). *)

val append : t -> record -> unit
(** Frame and append one record; no fsync (see {!sync}). Updates the
    derived state ({!generation}, {!pending}, ...) as the record
    implies. *)

val sync : t -> unit

val pending : t -> pending list
(** Operations with a [Begin] but neither [End] nor [Abort], oldest
    first — what recovery must resolve. *)

val compact : t -> unit
(** When nothing is pending, truncate resolved history down to a
    {!Checkpoint} carrying the generation and op counter. A no-op if
    any operation is pending. *)

val close : t -> unit

val abort : t -> unit
(** Test hook: drop the handle without the closing fsync, as a crashed
    process would. *)
