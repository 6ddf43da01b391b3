(** The Merge algorithm over ERPLs (paper Figure 3).

    One position-ordered multiway merge over the query's (term, sid)
    ERPLs, one {!Rpl.Cursor} each; elements arriving at the same
    document position have their per-term scores summed; the merged
    vector is then sorted by score. Computes {e all} answers in one
    sequential pass — no per-entry heap bookkeeping, which is exactly
    why it beats TA once TA must read most of its lists anyway.
    Requires the ERPLs of every (term, sid) pair of the query. *)

type stats = {
  entries_read : int;  (** ERPL entries read across all lists *)
  elements_merged : int;  (** distinct elements in the merged vector *)
  blocks_decoded : int;  (** ERPL segment blocks decoded *)
  elapsed_seconds : float;
  degraded : bool;
      (** the guard expired and the answers are a position-prefix of
          the full merge (scores of returned elements are exact) *)
}

val run :
  ?guard:Trex_resilience.Guard.t ->
  Trex_invindex.Index.t ->
  sids:int list ->
  terms:string list ->
  Answer.t * stats
(** All answers, descending score. [guard] is ticked once per merged
    element, between element drains, so a degraded run still reports
    exact scores for every element it returns.
    @raise Rpl.Cursor.Missing_list when a required ERPL is absent.
    @raise Invalid_argument when [terms] is empty. *)
