(** Persistent, crash-tolerant query journal.

    Every posed query appends one structured record — query digest,
    strategy, k, wall ms, physical reads, cache hit ratio, heap ops,
    degraded/fallback/retry flags, span summary — to an append-only
    file framed for torn-write safety. The entry point that receives
    the query writes it ([Trex.query], [Trex.query_structured],
    [Shard.scatter]), through {!finish_query}; evaluations below them
    never journal, so record counts are the workload frequencies the
    self-manager weighs queries by:

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
      (** 8-hex-digit CRC32 of [label] — the workload identity of the
          query (k excluded, so re-running a query at a different k
          still counts toward the same frequency). *)
  label : string;
      (** The NEXI text as posed: all the self-manager needs of the
          query, since it translates the text against the index it
          plans for. *)
  strategy : string;
      (** Method that produced the answer — on a scatter, the method
          every evaluated shard used, ["mixed"] otherwise. *)
  k : int;
  wall_ms : float;
  pages_read : int;  (** Physical page reads during the evaluation. *)
  cache_hit_ratio : float;  (** Hits / (hits + misses); 0 when no lookups. *)
  heap_ops : int;  (** TA heap operations during the evaluation. *)
  degraded : bool;
  fallbacks : int;  (** Methods abandoned by [evaluate_resilient]. *)
  retried : bool;  (** Any I/O retry fired during the evaluation. *)
  spans : (string * float) list;
      (** Flattened summary of the query's root span, [(path, ms)]
          (empty unless span tracing was on), then a scatter's
          per-shard breakdown: [shard:<name>] evaluation ms per
          replying shard, [lost:<name>] for each shard that did not
          reply. *)
}

val record_to_json : record -> Json.t
val record_of_json : Json.t -> record option
(** Fields are looked up by key and unknown keys ignored, so the
    [sids]/[terms] of records written by older builds still read. *)

val pp_record : Format.formatter -> record -> unit
(** One line: qid, digest, strategy, k, wall ms, pages, hit ratio,
    flags, a scatter's per-shard breakdown, then the label. *)

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

(** {1 Global switch}

    Journaling is off by default, exactly like span tracing: entry
    points pay nothing when it is off. *)

val set_enabled : bool -> unit

(** {1 Measuring one query} *)

type started

val start_query : unit -> started option
(** [None] when journaling is off: the entry point then builds no
    record. Otherwise snapshots the monotonic clock and the registry
    counters a record derives its deltas from
    ([pager.physical_reads], [pager.cache_hits],
    [pager.cache_misses], [ta.heap_operations],
    [resilience.retries]). *)

val finish_query :
  started ->
  t ->
  label:string ->
  strategy:string ->
  k:int ->
  degraded:bool ->
  ?fallbacks:int ->
  ?breakdown:(string * float) list ->
  unit ->
  unit
(** The one builder of query records: computes the deltas since
    [started], summarizes the most recently completed span when tracing
    is on (call it just after the query's root span closes), appends
    [breakdown] to that summary, and appends the record. *)
