(** The Merge algorithm over ERPLs (paper Figure 3).

    A sequential position scan, one summary extent at a time. An answer
    element lies in exactly one extent, so the lists of two extents
    never share an element: for each sid (ascending), Merge opens that
    extent's ERPL of each query term, one {!Rpl.Cursor} each, and
    merges those n heads by a linear scan for the least document
    position (n is the number of query terms). The term scores of an
    element reached from several terms are summed in query term order,
    as ERA sums them, so the scores are bit-identical to ERA's. The
    merged vector is then sorted by score. Computes {e all} answers —
    no per-entry heap bookkeeping, which is exactly why it beats TA
    once TA must read most of its lists anyway. Requires the ERPLs of
    every (term, sid) pair of the query. *)

type stats = {
  entries_read : int;  (** ERPL entries read across all lists *)
  elements_merged : int;  (** distinct elements in the merged vector *)
  blocks_decoded : int;  (** ERPL segment blocks decoded *)
  elapsed_seconds : float;
  degraded : bool;
      (** the guard expired: the answers are every extent finished
          before it plus a position-prefix of the extent it stopped in
          (scores of returned elements are exact) *)
}

val run :
  ?guard:Trex_resilience.Guard.t ->
  Trex_invindex.Index.t ->
  sids:int list ->
  terms:string list ->
  Answer.t * stats
(** All answers, descending score. [guard] is ticked once per merged
    element, before the element's drain, so a degraded run reports
    exact scores for every element it returns, each element once.
    @raise Rpl.Cursor.Missing_list when a required ERPL is absent; an
    extent's lists are opened when the merge reaches it, so the extents
    before it have been read by then.
    @raise Invalid_argument when [terms] is empty. *)
