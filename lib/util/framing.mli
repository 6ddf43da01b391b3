(** CRC32-framed records — the shared frame discipline of the on-disk
    journal/manifest files {e and} the shard supervisor's socketpair
    wire protocol.

    Layout: frames of
    [u32 payload-length LE | u32 CRC32(payload) LE | payload]; on-disk
    files prefix a fixed magic string. The file reader skips frames
    whose CRC rejects the payload (corrupt) and truncates the file at
    the first frame that runs past EOF (torn tail), so a crash
    mid-append never poisons later appends. A damaged length header
    looks like a torn tail too; when whole frames resume past it and
    run to EOF, the reader counts the damage as corrupt and keeps them.
    The stream {!Decoder}
    treats the same failures as connection-fatal ({!Corrupt_frame}) —
    a socket has no "later frames" worth salvaging past a corrupt one.

    All raw I/O here is EINTR-safe and resumes short reads/writes, so
    the discipline holds on sockets and pipes (where signals and
    partial transfers are routine), not just regular files.

    The module is payload-agnostic: callers supply a [decode] that
    parses one payload (returning [None] for undecodable ones, which
    count as corrupt) and keep their own metric counters. *)

type 'a swept = {
  fd : Unix.file_descr;  (** positioned at EOF, ready to append *)
  records : 'a list;  (** decoded records, oldest first *)
  corrupt : int;  (** frames dropped: bad magic, bad CRC, undecodable *)
  torn : bool;  (** a torn tail was truncated away *)
}

val open_file :
  magic:string -> decode:(string -> 'a option) -> string -> 'a swept
(** Open (creating if absent) and sweep a framed file. An empty file
    gains the magic; a file with a foreign or torn magic is restarted
    from scratch (counted as one corrupt record); a torn tail is
    truncated to the last whole frame. *)

val frame : string -> bytes
(** One encoded frame: 8-byte header then the payload. *)

val append : Unix.file_descr -> string -> unit
(** Append one framed payload at the current offset (not synced). *)

val reset : magic:string -> Unix.file_descr -> unit
(** Truncate to zero and rewrite the magic (for compaction). *)

val scan :
  decode:(string -> 'a option) -> string -> 'a list * int * int * bool
(** [scan ~decode body] sweeps frames in [body] (already past the
    magic): decoded records oldest first, corrupt-frame count, byte
    offset where the valid region ends, and whether the tail was
    torn. A header that is absurd or runs past the end is skipped, as
    one corrupt frame, when a chain of CRC-valid, decodable frames
    starts after it and ends exactly at the end of [body]; otherwise it
    is the torn tail. *)

val read_all : Unix.file_descr -> string
(** Whole file contents from offset 0. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write every byte, resuming short writes and EINTR — safe on
    sockets and pipes as well as regular files. *)

val max_payload : int
(** Frames claiming a longer payload are treated as corrupt headers. *)

exception Corrupt_frame of string
(** A stream frame that can never complete: absurd length header, CRC
    mismatch, or EOF landing inside a frame. Unlike the file sweep
    (which skips and continues), stream corruption is fatal to the
    connection — the supervisor treats it as a worker failure. *)

(** Incremental decoder for framed byte streams (sockets), where
    frames arrive in arbitrary chunks: feed whatever [read] returned,
    take out every complete frame. The chunking of the input never
    changes the decoded sequence (see the qcheck property in
    [test_util.ml]). *)
module Decoder : sig
  type t

  val create : unit -> t
  val feed : t -> bytes -> int -> int -> unit
  val feed_string : t -> string -> unit

  val next : t -> string option
  (** The next complete payload, or [None] when more bytes are needed.
      @raise Corrupt_frame on a frame that can never decode. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by {!next}. *)
end

val recv : Unix.file_descr -> Decoder.t -> string option
(** Blocking read of the next frame from a stream fd through [decoder]
    (EINTR-safe). [None] on a clean EOF at a frame boundary.
    @raise Corrupt_frame on corruption or EOF inside a frame. *)

type deadline_outcome =
  | Frame of string  (** a complete frame arrived in time *)
  | Eof  (** clean EOF at a frame boundary *)
  | Idle_timeout  (** no frame started within [idle_timeout_s] *)
  | Frame_timeout
      (** a frame started (bytes buffered) but did not complete within
          [frame_timeout_s] of its first byte *)

val recv_deadline :
  ?idle_timeout_s:float ->
  ?frame_timeout_s:float ->
  Unix.file_descr ->
  Decoder.t ->
  deadline_outcome
(** [recv fd decoder] with monotonic-clock deadlines. Both deadlines
    are {e absolute} (anchored once, via {!Stopclock.now}): the idle
    deadline when the call starts with no partial frame buffered, the
    frame deadline at the first byte of an incomplete frame. Because
    nothing re-arms on subsequent bytes, a peer dribbling one byte at
    a time can never extend either deadline — this is the slowloris
    defense used for the serve front door's connection read deadline
    and the shard worker's request/heartbeat wait. Omitted timeouts
    wait forever (degenerating to {!recv}).
    @raise Corrupt_frame on corruption or EOF inside a frame. *)
