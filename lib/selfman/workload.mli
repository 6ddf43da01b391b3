(** Workloads (paper Definition 4.1): top-k retrieval queries with
    frequencies summing to one. A query is its NEXI text: whoever plans
    for an index translates it against that index, at plan time, so a
    workload never holds summary ids an added document made stale. *)

type query = {
  id : string;
  nexi : string;
  k : int;
  frequency : float;
}

type t = private query list

val create : query list -> t
(** Validates: non-empty, distinct ids, positive frequencies summing to
    1 (within 1e-6), positive [k], and NEXI that parses.
    @raise Invalid_argument on the former.
    @raise Trex_nexi.Parser.Syntax_error on the first query whose NEXI
      does not parse, its message prefixed by ["query <id>: "]. *)

val of_unweighted : (string * string * int) list -> t
(** (id, nexi, k) triples, uniform frequencies. *)

val queries : t -> query list
val find : t -> string -> query option

val translate : Trex_invindex.Index.t -> string -> int list * string list
(** The summary ids and normalized terms a NEXI query reads on [index]
    now: the text translated against the index's summary, as
    [Trex.translate] does. @raise Trex_nexi.Parser.Syntax_error *)
