(** Relevance judgments (qrels), INEX/TREC style.

    The paper's first challenge — "queries are expected to be answered
    as ... effectively as in traditional keyword search" — needs graded
    judgments to quantify. Judgments map (query, document) to a
    non-negative grade; grade 0 (or absence) means not relevant. *)

type t

val empty : t
val add : t -> query:string -> docid:int -> grade:int -> t
(** Re-adding replaces the grade. @raise Invalid_argument on a negative
    grade. *)

val of_list : (string * int * int) list -> t
(** (query, docid, grade) triples. *)

val grade : t -> query:string -> docid:int -> int
(** 0 when unjudged. *)

val is_relevant : t -> query:string -> docid:int -> bool
(** grade > 0. *)

val relevant_count : t -> query:string -> int

val grades : t -> query:string -> int list
(** All positive grades judged for the query, descending — the ideal
    gain profile nDCG normalizes against. *)
