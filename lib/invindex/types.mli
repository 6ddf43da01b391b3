(** Identifiers shared by the index and retrieval layers. *)

(** A token occurrence: document and byte offset of the token start.
    Totally ordered by (docid, offset) — document order. *)
type pos = { docid : int; offset : int }

val compare_pos : pos -> pos -> int

val m_pos : pos
(** The paper's maximal dummy position: strictly greater than any real
    position; appended to posting lists so iterators can signal
    exhaustion uniformly. *)

val is_m_pos : pos -> bool

(** An element as TReX identifies it: summary node, document, end
    position and length. [start = endpos - length]. *)
type element = { sid : int; docid : int; endpos : int; length : int }

val start_pos : element -> int
val element_end : element -> pos
(** The (docid, endpos) pair — the element's position for iterator
    ordering. *)

val dummy_element : element
(** End position [m_pos], length 0 — returned by extent iterators when
    the extent is exhausted (as in the paper's ERA). *)

val is_dummy : element -> bool

val contains : element -> pos -> bool
(** [contains e p]: the token starting at [p] lies strictly inside
    [e]'s source span (same document, start < offset < end). *)

val element_contains_element : outer:element -> inner:element -> bool
(** Same document and the inner span lies within the outer span (used
    by the structured NEXI evaluator to join support paths). *)

val compare_element : element -> element -> int
(** Orders by (docid, endpos, length, sid): document order of end
    positions. *)

val pp_element : Format.formatter -> element -> unit
