(** Element relevance scoring.

    The paper delegates content scoring to "well-established IR
    techniques"; we provide the two classics. Scores are per (element,
    term) — exactly what an RPL entry stores — and multi-term relevance
    is their {e sum}, a monotone aggregate as the threshold algorithm
    requires. *)

type config =
  | Bm25 of { k1 : float; b : float }
      (** Okapi BM25 with element-length normalization. *)
  | Tf_idf  (** log-scaled tf times idf, length-normalized. *)

val default : config
(** BM25 with [k1 = 1.2], [b = 0.75]. *)

type corpus = {
  doc_count : int;
  avg_element_length : float;  (** in bytes, as the index measures it *)
}

val idf : doc_count:int -> df:int -> float
(** [log (1 + (N - df + 0.5) / (df + 0.5))]; non-negative, decreasing
    in [df]. *)

val score : config -> corpus:corpus -> df:int -> tf:int -> element_length:int -> float
(** Relevance of one element for one term. Zero when [tf = 0];
    monotonically increasing in [tf]. *)

val combine : float list -> float
(** Summation — the monotone aggregate used by TA, Merge and ERA. *)
