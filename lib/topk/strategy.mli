(** Strategy selection and uniform evaluation (paper §3).

    TReX evaluates each (sids, terms) retrieval with one of three
    methods — ERA, TA, or Merge (plus the ITA measurement variant) —
    whichever the available indexes permit and the query profile
    favours. One method answers each evaluation: the paper's §4 idea of
    racing TA against Merge is not offered, since {!choose} plans from
    catalog sizes and {!evaluate_resilient} falls back on failure.

    Evaluations never write the query journal: the advisor's own timing
    runs call them too, and a record belongs to a posed query, which
    only the query entry points ([Trex.query], [Shard.scatter]) see. *)

type method_ = Era_method | Ta_method | Ita_method | Merge_method

val method_to_string : method_ -> string
val all_methods : method_ list

type outcome = {
  method_used : method_;
  answers : Answer.t;  (** top-k for TA/ITA; all answers otherwise *)
  elapsed_seconds : float;
  entries_read : int;  (** index entries consumed (postings or lists) *)
  degraded : bool;
      (** the run's guard expired and [answers] is a sound but
          possibly-partial prefix (see the per-method stats docs) *)
  detail : string;  (** human-readable per-method statistics *)
}

val tables_of_method : method_ -> string list
(** The Env tables the method reads beyond the base index ([[]] for
    ERA) — the unit at which circuit breakers trip. *)

val evaluate :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  sids:int list ->
  terms:string list ->
  k:int ->
  ?guard:Trex_resilience.Guard.t ->
  ?floor:float ->
  method_ ->
  outcome
(** [floor] is a score k answers are already known to achieve elsewhere
    (the sharded coordinator's global k-th score); only TA/ITA consume
    it — see {!Ta.run} — the other methods compute complete answers
    that the caller filters.
    @raise Rpl.Cursor.Missing_list when the method's indexes are not
    materialized. *)

val available : Trex_invindex.Index.t -> sids:int list -> terms:string list -> method_ list
(** Methods whose tables' circuit breakers admit callers {e and} whose
    required indexes exist (ERA always qualifies) — a tripped RPL table
    takes TA/ITA out of planning until its breaker closes. A catalog
    that raises {!Trex_storage.Pager.Corruption} while being read here
    trips its method's tables, and the method is left out. *)

type failover = { failed : method_; error : string }

val evaluate_resilient :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  sids:int list ->
  terms:string list ->
  k:int ->
  ?guard:Trex_resilience.Guard.t ->
  ?floor:float ->
  ?method_:method_ ->
  unit ->
  outcome * failover list
(** Like {!evaluate} ([method_] forces the first attempt; otherwise
    {!choose}), but a [Pager.Corruption] or
    {!Rpl.Stale_generation} (table blocked pending manifest resolution)
    inside a redundant-index method trips that method's tables' breakers and
    re-plans over the surviving methods — TA falls back to Merge falls
    back to ERA — recording one {!failover} per abandoned method and
    bumping ["resilience.fallbacks"]. A complete success records itself
    with the method's breakers (closing a half-open probe); when the
    evaluation was a half-open table's probe and it either came back
    degraded or was aborted by {!Trex_resilience.Guard.Budget_exceeded},
    the probe is {e failed} — the breaker re-opens instead of leaking
    the probe slot. ERA failures propagate: the base tables have no
    redundant substitute. *)

val choose :
  Trex_invindex.Index.t -> sids:int list -> terms:string list -> k:int -> method_
(** Heuristic choice among {!available}: TA when the RPLs exist and [k]
    is at most a twentieth of the query's materialized RPL entries
    (exact for every [k], [max_int] included), otherwise Merge
    when the ERPLs exist, otherwise ERA — the paper's observation that
    no method dominates, operationalized. *)

