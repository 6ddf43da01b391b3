(** Ranked answer lists. *)

type entry = { element : Trex_invindex.Types.element; score : float }

type t = entry list
(** Descending score; ties broken by document order so every strategy
    returns the same ranking. *)

val of_unsorted : (Trex_invindex.Types.element * float) list -> t

val select : int -> ((Trex_invindex.Types.element -> float -> unit) -> unit) -> t
(** [select k iter] is [top_k (of_unsorted items) k] for the items
    [iter] emits, kept in a heap of at most [k] entries instead of
    sorting them all. *)

val merge : t list -> t
(** Merge already-sorted answer lists into one ranking (descending
    score, document-order tie-break) — the scatter-gather combine. *)

val top_k : t -> int -> t
val size : t -> int

val equal : ?eps:float -> t -> t -> bool
(** Same elements in the same order with scores within [eps]
    (default 1e-9). *)

val pp : Format.formatter -> t -> unit
