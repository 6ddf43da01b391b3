(** Binary heaps.

    Merge's k-way position merge, the RPL cursors and the final top-k
    selection of a ranking use them. The heap also exposes its
    operation count, a machine-independent proxy for heap cost. *)

module Make (Ord : sig
  type t

  val compare : t -> t -> int
end) : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool

  val push : t -> Ord.t -> unit
  val peek : t -> Ord.t option
  val pop : t -> Ord.t option
  (** Remove and return the minimum element. *)

  val push_pop : t -> Ord.t -> Ord.t
  (** [push_pop t x] pushes [x] then pops the minimum; more efficient
      than the two calls and never changes the size. *)

  val to_sorted_list : t -> Ord.t list
  (** Ascending order; destroys the heap. *)

  val operations : t -> int
  (** Total number of sift operations performed, a machine-independent
      proxy for heap-management cost. *)
end
