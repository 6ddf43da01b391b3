(** Binary codecs.

    Two families are provided:

    - {e order-preserving} key encodings, used by the storage layer so
      that lexicographic comparison of encoded keys matches the natural
      ordering of the decoded values (composite keys compare
      field-by-field);
    - plain {e value} encodings (varints, length-prefixed strings) used
      for row payloads where ordering does not matter. *)

(** {1 Order-preserving key encoding} *)

val key_of_int : int -> string
(** [key_of_int n] is an 8-byte big-endian encoding of [n] with the sign
    bit flipped, so that [compare (key_of_int a) (key_of_int b)] equals
    [compare a b] for all ints. *)

val int_of_key : string -> pos:int -> int * int
(** [int_of_key s ~pos] decodes an int written by {!key_of_int} at
    offset [pos] and returns it with the offset past the field.
    @raise Invalid_argument if fewer than 8 bytes remain. *)

val key_of_float : float -> string
(** Order-preserving encoding of a finite float (IEEE bits, sign
    massaged so that numeric order matches byte order). *)

val key_of_string : string -> string
(** [key_of_string s] escapes NUL bytes and appends a [0x00 0x01]
    terminator so that concatenated composite keys never compare a field
    against the next field's bytes. Prefix-free and order-preserving. *)

val string_of_key : string -> pos:int -> string * int

val concat_keys : string list -> string
(** Concatenate already-encoded key fields into one composite key. *)

(** {1 Value (payload) encoding} *)

val varint_size : int -> int
(** Bytes {!Buf.add_varint} spends on the argument. *)

val set_varint : bytes -> int -> int -> int
(** [set_varint b pos n] writes [n] at [pos] exactly as {!Buf.add_varint}
    would and returns the position after it.
    @raise Invalid_argument if the encoding does not fit in [b]. *)

module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val contents : t -> string
  val add_varint : t -> int -> unit

  val add_uvarint : t -> int -> unit
  (** Plain (non-zig-zag) LEB128 for values that are non-negative by
      construction. @raise Invalid_argument on a negative argument. *)

  val add_word : t -> int -> unit
  (** The argument's whole 63-bit pattern as LEB128, sign bit included
      (nine bytes when it is set): for bitmaps, not quantities. Read
      back by {!Reader.uvarint}. *)

  val add_int64_le : t -> int64 -> unit
  val add_int32_le : t -> int32 -> unit
  val add_float : t -> float -> unit
  val add_string : t -> string -> unit

  (** Length-prefixed. *)

  val add_raw : t -> string -> unit
  (** No length prefix. *)
end

module Reader : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val at_end : t -> bool

  val varint : t -> int
  (** @raise Malformed on an encoding longer than 9 bytes (which would
      silently wrap past 63 bits) or with a redundant trailing zero
      group, so corrupt input fails instead of decoding to garbage. *)

  val uvarint : t -> int
  (** Decodes {!Buf.add_uvarint}. Same malformed-input guarantees as
      {!varint}. *)

  val int64_le : t -> int64
  val int32_le : t -> int32
  val float : t -> float
  val string : t -> string
  val raw : t -> int -> string

  exception Truncated
  (** Input ended mid-value. *)

  exception Malformed of string
  (** Input is structurally invalid (overlong varint, bad checksum,
      unknown format marker); retrying with more bytes cannot help. *)
end

(** Fixed-width bit packing for frame-of-reference block compression:
    [count] values of [width] bits each, LSB-first within and across
    bytes, no per-value terminator. Callers pick [width] per block (see
    {!Bitpack.width}) so narrow local ranges cost narrow fields even
    when the global range is wide. *)
module Bitpack : sig
  val max_width : int
  (** 56 — keeps every intermediate shift below OCaml's 63-bit int. *)

  val width : int array -> int
  (** Bits needed for the largest value ([0] for an all-zero or empty
      array). Values must be non-negative. *)

  val pack : Buf.t -> width:int -> int array -> unit
  (** @raise Invalid_argument if [width] is outside
      [0..max_width] or any value needs more than [width] bits. *)

  val unpack : Reader.t -> width:int -> count:int -> int array
  (** Inverse of {!pack}; consumes exactly the packed bytes.
      @raise Reader.Malformed if [width] or [count] is out of range
      (corrupt input, not a programming error). *)
end

(** Block-compressed segments: several delta-encoded blocks packed into
    one table value behind a skip directory of caller-defined per-block
    headers, CRC-protected, with lazy per-block decoding. This is the
    one storage format of posting, RPL and ERPL values; the leading
    version marker lets readers refuse anything else. *)
module Block : sig
  val scale : float
  (** Quantization step denominator for skip-entry score bounds. *)

  val quantize_up : float -> int
  (** Smallest quantized value [>=] the score — sound as an upper
      bound for rank-safe pruning. *)

  val dequantize : int -> float

  module Writer : sig
    type t

    val create : unit -> t
    val is_empty : t -> bool
    val block_count : t -> int

    val add : t -> header:string -> payload:string -> unit
    (** Append one block. [header] is the caller's skip entry (decoded
        back via {!header}); [payload] its encoded entries. *)

    val byte_estimate : t -> int
    (** Upper-ish bound on [contents] size, for byte-budgeted flushing. *)

    val contents : ?extra:string -> t -> string
    (** Serialize; [extra] is an optional segment-level header (e.g. a
        score dictionary) available before any block is decoded. *)
  end

  type t

  val of_string : string -> t
  (** The parsed directory; payloads are not decoded here.
      @raise Reader.Malformed on a value that is not a segment (its
        leading marker is how a corrupt value is told apart), checksum
        mismatch or an inconsistent directory. *)

  val extra : t -> string
  val block_count : t -> int

  val header : t -> int -> Reader.t
  (** Reader over block [i]'s skip-entry header. *)

  val payload : t -> int -> Reader.t
  (** Reader over block [i]'s payload — the only per-block decode cost
      paid for skipped blocks is never paid at all. *)
end
