(** Workloads (paper Definition 4.1): top-k retrieval queries with
    frequencies summing to one. *)

type query = {
  id : string;
  sids : int list;
  terms : string list;
  k : int;
  frequency : float;
}

type t = private query list

val create : query list -> t
(** Validates: non-empty, distinct ids, positive frequencies summing to
    1 (within 1e-6), positive [k]. @raise Invalid_argument otherwise. *)

val of_unweighted : (string * int list * string list * int) list -> t
(** Uniform frequencies. *)

val of_journal : Trex_obs.Journal.record list -> t
(** The {e observed} workload: one query per distinct journal digest,
    its frequency the share of records carrying that digest, its
    (sids, terms, k) taken from the digest's most recent record (with
    [k] clamped to at least 1). This is how the advisor consumes real
    traffic instead of a hand-assembled workload.
    @raise Invalid_argument on an empty record list. *)

val queries : t -> query list
val find : t -> string -> query option
