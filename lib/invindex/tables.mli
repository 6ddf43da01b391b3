(** Key and row codecs for the TReX tables.

    The paper's schemas, with underlined primary keys, are:

    - [Elements(SID, docid, endpos, length)]
    - [PostingLists(token, docid, offset, postingdataentry)]
    - [Documents(docid, name, bytes, elements)] (ours, for stats)
    - [Terms(token, df, cf)] (ours, for scoring)

    Keys are built with order-preserving codecs so B+tree order equals
    schema order; long posting lists are chunked over several rows keyed
    by their first position, exactly as the paper describes. *)

module Elements : sig
  val name : string
  val key : sid:int -> docid:int -> endpos:int -> string
  val sid_prefix : int -> string
  val encode : Types.element -> string * string
  (** Row (key, value); the value carries the length. *)

  val decode : string -> string -> Types.element
end

module Posting_lists : sig
  val name : string
  val token_prefix : string -> string
  val key : token:string -> first:Types.pos -> string

  (** {2 Block-compressed segments}

      Every posting value is a run of frame-of-reference bit-packed
      blocks (see DESIGN.md §7) behind a {!Trex_util.Codec.Block} skip
      directory. *)

  type block_info = {
    first : Types.pos;
    count : int;
    w_gap : int;  (** bit width of the docid-gap stream *)
    w_delta : int;  (** bit width of same-doc offset deltas *)
    w_abs : int;  (** bit width of doc-change absolute offsets *)
  }
  (** Header of one block: its first position, its entry count and the
      widths its payload streams are packed at. *)

  val segment_rows : token:string -> Types.pos list -> (string * string) list
  (** Cut a non-empty position-sorted list into segment rows, packing
      ~[block_entries]-position blocks until a byte budget that keeps
      every row inside the B+tree entry budget; each row's key is its
      first position.
      @raise Invalid_argument on an empty list. *)

  val decode_block_header : Trex_util.Codec.Reader.t -> block_info
  val decode_block : block_info -> Trex_util.Codec.Reader.t -> Types.pos list

  val decode_value : string -> Types.pos list
  (** Eagerly decode a posting value.
      @raise Trex_util.Codec.Reader.Malformed on a value that is not a
        segment. *)
end

module Documents : sig
  type row = { docid : int; name : string; bytes : int; elements : int }

  val name : string
  val encode : row -> string * string
  val decode : string -> string -> row
end

module Terms : sig
  type row = { token : string; df : int; cf : int }
  (** [df] documents containing the token, [cf] total occurrences. *)

  val name : string
  val encode : row -> string * string
  val decode : string -> string -> row
end

val meta_table : string
(** One-row-per-key table for index metadata (summary blob, analyzer
    configuration, corpus statistics). *)
