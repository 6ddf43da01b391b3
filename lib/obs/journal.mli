(** Persistent, crash-tolerant query journal.

    Every top-level strategy evaluation appends one structured record —
    query digest, strategy, k, wall ms, physical reads, cache hit
    ratio, heap ops, degraded/fallback/retry flags, span summary — to
    an append-only file framed for torn-write safety:

    {v
      "TREXQJ1\n"                      8-byte file magic
      repeated frames:
        u32 LE  payload length
        u32 LE  CRC32 of payload
        bytes   payload (one JSON object per record)
    v}

    Records are never rewritten in place, so the only damage a crash
    (or bit rot) can inflict is a torn final frame or a corrupt frame
    body. [open_file] sweeps the file front to back: frames whose CRC
    or JSON does not check out are skipped and counted in
    [journal.corrupt_records]; a frame that runs past end-of-file (or
    whose length field is implausible) marks a torn tail, which is
    truncated away and counted in [journal.torn_tails]. The valid
    prefix is always recovered in full — opening never raises on a
    damaged journal, and appending after recovery continues cleanly.

    The journal is single-writer, like the storage engine it lives
    beside ({!Trex_storage} env directory). Appends are a single
    [write]; [sync]/[close] fsync. *)

type t

(** {1 Records} *)

type record = {
  qid : int;  (** Sequence number, unique within one journal file. *)
  ts : float;  (** Unix timestamp at completion. *)
  digest : string;
      (** 8-hex-digit CRC32 of the NEXI text when a label was set,
          otherwise of the canonical (sids, terms) form — the workload
          identity of the query (k excluded, so re-running a query at a
          different k still counts toward the same frequency). *)
  label : string;  (** NEXI text when known, [""] otherwise. *)
  strategy : string;  (** Method that produced the answer. *)
  k : int;
  wall_ms : float;
  pages_read : int;  (** Physical page reads during the evaluation. *)
  cache_hit_ratio : float;  (** Hits / (hits + misses); 0 when no lookups. *)
  heap_ops : int;  (** TA heap operations during the evaluation. *)
  degraded : bool;
  fallbacks : int;  (** Methods abandoned by [evaluate_resilient]. *)
  retried : bool;  (** Any I/O retry fired during the evaluation. *)
  sids : int list;
  terms : string list;
  spans : (string * float) list;
      (** Flattened span-tree summary, [(path, ms)]; empty unless span
          tracing was enabled during the query. *)
}

val record_to_json : record -> Json.t
val record_of_json : Json.t -> record option
val pp_record : Format.formatter -> record -> unit

val digest_of : string -> string
(** CRC32 of a string as 8 lowercase hex digits. *)

(** {1 Lifecycle} *)

val open_file : string -> t
(** Open (creating if absent) a journal file, sweeping and repairing
    it as described above. Never raises on torn or corrupt contents;
    raises [Sys_error]/[Unix.Unix_error] only on real I/O failure. *)

val in_memory : unit -> t
(** A journal with no backing file (memory-backed envs). *)

val append : t -> record -> record
(** Assigns the next [qid] (the [qid] field of the argument is
    ignored), appends one frame, and returns the stored record. *)

val records : t -> record list
(** All valid records, oldest first. *)

val length : t -> int
val path : t -> string option
val sync : t -> unit
val close : t -> unit

(** {1 Global switches}

    Journaling is off by default, exactly like span tracing: strategy
    entry points check [enabled] and pay nothing when it is off. The
    label is a hint set by the query façade so records can carry the
    NEXI text the user actually typed. *)

val set_enabled : bool -> unit
val enabled : unit -> bool
val with_label : string -> (unit -> 'a) -> 'a
(** [with_label l f] runs [f] with the label set to [l], clearing it
    however [f] returns. *)

val label : unit -> string option

(** {1 Measuring one query}

    [start_query] snapshots the wall clock and the registry counters a
    record derives its deltas from ([pager.physical_reads],
    [pager.cache_hits], [pager.cache_misses], [ta.heap_operations],
    [resilience.retries]); [finish_query] computes the deltas, builds
    the record and appends it. *)

type started

val start_query : unit -> started

val build_record :
  started ->
  strategy:string ->
  sids:int list ->
  terms:string list ->
  k:int ->
  degraded:bool ->
  ?fallbacks:int ->
  ?spans:(string * float) list ->
  unit ->
  record
(** Compute the deltas and build a record {e without} appending it
    anywhere ([qid] is left 0 — [append] assigns the real one). Worker
    processes use this to ship a journal record over the wire instead
    of persisting it locally; the coordinator appends the merged
    record to its own journal. *)

val finish_query :
  t ->
  started ->
  strategy:string ->
  sids:int list ->
  terms:string list ->
  k:int ->
  degraded:bool ->
  ?fallbacks:int ->
  ?spans:(string * float) list ->
  unit ->
  record
