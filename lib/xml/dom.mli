(** In-memory XML trees built from {!Sax} events.

    Every element records where it starts and ends in the source bytes —
    the (endpos, length) pair is exactly how TReX's [Elements] table
    identifies elements within a document. *)

type node = Element of element | Text of { content : string; start_pos : int }

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
  start_pos : int;  (** byte offset of the opening ['<'] *)
  end_pos : int;  (** byte offset one past the closing ['>'] *)
}

type doc = { root : element; source_length : int }

val parse : string -> doc
(** @raise Sax.Malformed on invalid input. *)

val length : element -> int
(** [end_pos - start_pos]: the element's length in source bytes. *)

val attr : element -> string -> string option

val text_content : element -> string
(** Concatenated descendant text, in document order, space-joined. *)

val iter_elements : doc -> (string list -> element -> unit) -> unit
(** Visit every element in document order with its label path from the
    root ({e including} the element's own tag, root tag first). *)

val count_elements : doc -> int

val find_all : doc -> (element -> bool) -> element list
(** Document-order list of elements satisfying the predicate. *)

val to_string : ?indent:bool -> element -> string
(** Serialize. Positions are not preserved: re-parsing the output gives
    a structurally equal tree with fresh positions. *)

val equal_structure : element -> element -> bool
(** Structural equality ignoring positions (used in round-trip tests). *)
