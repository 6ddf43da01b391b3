(** Streaming (SAX-style) XML parser with byte positions.

    TReX identifies an element by the byte position where it {e ends}
    plus its length, and a term occurrence by its byte offset; both come
    straight from this parser's event positions. The parser handles the
    XML subset that document collections such as INEX use: prolog,
    comments, processing instructions, CDATA, attributes, predefined and
    numeric entities. DTDs are skipped, not validated. *)

type event =
  | Start_element of { tag : string; attrs : (string * string) list; start_pos : int }
      (** [start_pos] is the offset of the opening ['<']. *)
  | End_element of { tag : string; end_pos : int }
      (** [end_pos] is the offset one past the closing ['>'] (for an
          empty-element tag, one past its ['>']). *)
  | Text of { content : string; start_pos : int }
      (** Entity-resolved character data (CDATA included); [start_pos]
          is the offset of the first raw byte. *)

exception Malformed of { message : string; pos : int }

val parse : string -> (event -> unit) -> unit
(** Parse a complete document, invoking the callback in document order.
    Events for whitespace-only text between elements are suppressed.
    @raise Malformed with a message and byte offset on invalid input. *)
