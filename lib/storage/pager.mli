(** Paged storage with an LRU page cache, page checksums and
    torn-write-proof header commits.

    This is the lowest layer of the BerkeleyDB-replacement substrate:
    fixed-size pages addressed by page id, backed either by an ordinary
    file or by memory (for tests and small corpora). All B+tree nodes
    live in pages obtained here, and the pager records read/write/hit
    statistics so experiments can report I/O work.

    Durability model (file backend):
    - every page is written together with a CRC32 trailer in one
      syscall; physical reads verify it and raise {!Corruption} instead
      of returning garbage;
    - the header (page size, page count, root) lives in two alternating
      slots, each individually checksummed and stamped with a commit
      epoch. {!flush} writes dirty pages first and only then commits the
      header to the slot the previous epoch does not occupy, so a crash
      at any byte boundary leaves at least one valid header. {!flush}
      with [~sync:true] additionally [fsync]s around the header commit;
    - between commits, a dirty page the committed header covers is
      {e pinned}: the cache never writes it back early, so a crash
      between commits falls back to exactly the committed tree. Only
      pages past the committed page count (no header reaches them) are
      evicted dirty, and a full cache of pinned pages grows past its
      bound until the next {!flush};
    - there is no write-ahead log here: a crash {e during} a flush can
      mix page-granularity updates (the operation manifest above this
      layer replays them), and {!open_with_recovery} plus the checksum
      sweep guarantees the damage is detected, never silently served. *)

type t

type stats = {
  physical_reads : int;  (** pages fetched from the backing store *)
  physical_writes : int;  (** pages flushed to the backing store *)
  cache_hits : int;
  cache_misses : int;
  checksum_failures : int;  (** physical reads rejected by CRC *)
  recoveries : int;  (** 1 iff this handle was opened via header fallback *)
}

type corruption_info = { path : string; page : int; detail : string }
(** [page] is [-1] for file-level damage (header, truncation). *)

exception Corruption of corruption_info
(** Raised instead of propagating bytes that fail validation. *)

val create_memory : ?page_size:int -> unit -> t
(** Purely in-memory pager; pages live until {!close}. *)

val create_file : ?page_size:int -> ?cache_pages:int -> string -> t
(** [create_file path] truncates/creates [path]. [cache_pages] bounds
    the number of resident pages (default 4096). [page_size] must be in
    (0, 1 MiB]. *)

val open_file : ?cache_pages:int -> string -> t
(** Re-open a pager file written by {!create_file}; the page size is
    read from the newest valid header slot. Strict: raises
    {!Corruption} if either header slot is damaged, the file is
    truncated, or header fields are absurd — use {!open_with_recovery}
    to fall back to the older committed epoch. *)

type recovery = {
  recovered : bool;  (** the newest header slot was damaged *)
  epoch_used : int;
  note : string;  (** human-readable summary for logs/CLI *)
}

val open_with_recovery : ?cache_pages:int -> string -> t * recovery
(** Like {!open_file}, but when the newest header slot is damaged it
    falls back to the older committed epoch instead of raising, setting
    [recovered] (and the {!stats} [recoveries] counter). Still raises
    {!Corruption} when no valid header survives. *)

val page_size : t -> int
val page_count : t -> int

val pinned_pages : t -> int
(** Dirty cached pages the committed header covers, which stay in the
    cache until the next {!flush} (0 for a memory pager). *)

val cache_pages : t -> int
(** The cache bound a file pager was opened with; [max_int] in memory. *)

val allocate : t -> int
(** Extend the store by one zeroed page and return its id. *)

val read : t -> int -> bytes
(** [read t id] returns the page contents. The returned buffer is the
    live cached copy: a later write to the same id overwrites it, and mutating it
    without a subsequent {!write} is a bug.
    @raise Invalid_argument on an out-of-range id.
    @raise Corruption if the on-disk page fails its checksum. *)

val write : t -> int -> bytes -> unit
(** Replace page [id] with raw bytes, discarding any decoded form. The
    buffer length must equal [page_size t]. *)

(** {1 Decoded frames}

    A cached page can also hold its parsed form, so the layer above
    decodes a page once per cache residency instead of once per access.
    The decoded form lives and dies with its frame. In a file pager it
    is bounded by [cache_pages] like the bytes, and an evicted page is
    decoded again on its next miss. A memory pager never evicts: it
    keeps the decoded form of every page it has read next to the bytes,
    with no bound. *)

type decoded = ..
(** Parsed page forms; each client layer adds its own constructor. *)

val read_decoded : t -> int -> decode:(bytes -> decoded) -> decoded
(** The cached decoded form of page [id]. On a frame without one (a
    miss, read and CRC-checked, or raw bytes from {!write}) [decode]
    runs once over the page bytes and its result is cached. [decode]
    must copy what it keeps out of the buffer. Counts a cache hit or
    miss exactly like {!read}.
    @raise Corruption as {!read}, or from [decode]. *)

val write_decoded : t -> int -> decoded -> encode:(bytes -> unit) -> unit
(** Replace page [id] by a decoded form and its bytes: [encode] writes
    the page into the zeroed frame buffer at once, and the decoded form
    is cached beside it. The decoded value must be immutable from here
    on: later {!read_decoded} calls return it as is. *)

val set_root : t -> int -> unit
(** Record a distinguished page id (the B+tree root). Buffered: it is
    persisted by the next {!flush}/{!close} header commit, after the
    pages it refers to. *)

val get_root : t -> int
(** Last value passed to {!set_root}, or [-1]. *)

val flush : ?sync:bool -> t -> unit
(** Write dirty pages, then commit the header under a fresh epoch.
    [~sync:true] (default false) makes it a durable commit point:
    [fsync] after the pages and again after the header. *)

val verify_checksums : t -> (int * string) list
(** Physically re-read every page and report [(page, detail)] for each
    one failing its CRC or truncated, bypassing the cache. [[]] means
    the on-disk image is bytewise sound (always [[]] in memory). *)

val stats : t -> stats
val close : t -> unit
(** Durable flush ([sync:true]) then release. *)

val abort : t -> unit
(** Release without flushing — the cache and any buffered root/header
    update are dropped, as a crash would drop them. Used by the fault
    harness to simulate dying at an injection point. *)

(** {1 Deterministic fault injection}

    The crash-matrix tests wrap a file pager in a fault plan; faults
    key on the pager's raw-write sequence number, which counts every
    page write {e and} header-slot write, so any physical commit point
    can be targeted deterministically. *)

exception Injected_crash of string
(** Simulated power cut. The pager must then be {!abort}ed, not
    {!close}d (closing would flush and "un-crash" it). *)

exception Io_transient of { path : string; op : string; detail : string }
(** An injected transient I/O error. Raised before any bytes move, so a
    failed attempt has no on-disk effect; physical page reads, writes
    and fsyncs retry these internally under {!retry_policy} and only an
    exhausted retry budget escapes (as
    [Trex_resilience.Retry.Exhausted], which the circuit-breaker layer
    treats as a table failure). *)

type transient_spec = {
  seed : int;  (** PRNG seed; equal seeds replay equal fault schedules *)
  fail_one_in : int;  (** an episode starts with probability 1/n per op *)
  fail_streak : int;
      (** consecutive failures per episode — the op succeeds on attempt
          [fail_streak + 1], so retry with more attempts than the streak
          always recovers *)
}

type fault =
  | Crash_after_writes of int
      (** allow that many raw writes, then raise {!Injected_crash}
          before the next one touches the file *)
  | Torn_write of { after_writes : int; keep_bytes : int }
      (** write #[after_writes+1] persists only its first [keep_bytes]
          bytes, then raises {!Injected_crash} *)
  | Flip_bit of { after_writes : int; byte_index : int; bit : int }
      (** silently corrupt one bit of write #[after_writes+1]
          ([byte_index] wraps modulo the write length) *)
  | Drop_fsync  (** turn [fsync] into a no-op *)
  | Transient_read of transient_spec
      (** physical page reads fail transiently per the spec *)
  | Transient_write of transient_spec
      (** physical page writes fail transiently per the spec *)
  | Transient_fsync of transient_spec
      (** fsyncs fail transiently per the spec *)

val create_faulty : faults:fault list -> t -> t
(** Arm a fault plan on a pager (returned for chaining). *)

val set_retry_policy : Trex_resilience.Retry.policy -> unit
(** Replace the process-wide policy under which physical page I/O
    retries {!Io_transient} failures (default
    [Trex_resilience.Retry.default_policy]). *)

val retry_policy : unit -> Trex_resilience.Retry.policy

val io_seq : t -> int
(** Raw writes performed so far; [Crash_after_writes (io_seq t)] crashes
    on the very next write. *)

val path : t -> string
(** Backing file path, or ["<memory>"]. *)
