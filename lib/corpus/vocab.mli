(** Synthetic vocabulary with planted query terms.

    The paper's experiments depend on queries whose terms differ wildly
    in frequency (Q270's terms yield 92k answers, Q233's 458). We build
    a Zipf-distributed vocabulary of pseudo-words and {e plant} the
    paper's query terms at chosen Zipf ranks, so each query's
    selectivity class survives the substitution of synthetic text for
    INEX documents. Topic word-sets then boost co-occurrence inside
    documents assigned to a topic. *)

type t

val create : ?size:int -> seed:int -> unit -> t
(** [size] is the total vocabulary (default 1500). *)

val size : t -> int

val sample : t -> Trex_util.Prng.t -> string
(** Zipf-distributed word. *)

type topic = {
  name : string;
  words : string list;  (** boosted words; includes planted terms *)
}

val topics : t -> topic list
(** The fixed topic set (semantic-web, verification, audio, ...). *)
