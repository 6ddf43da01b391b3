(** Threshold algorithm over RPLs (paper §3.3, TopX-style), one summary
    extent at a time.

    An answer element lies in exactly one extent (sid) and scores the
    sum of its entries in that extent's (term, sid) RPLs, so the top-k
    is the top-k of the per-extent top-k's. Each list's head is read
    once; an extent's bound is the sum of its heads. Extents are visited
    in descending bound order, each consuming its n lists round-robin:
    partial sums accumulate per element, one indexed min-heap of at most
    k candidates, shared by every extent, holds the top-k, and the visit
    stops when the threshold — the sum of the last score seen in each of
    its lists — proves nothing unseen or partially seen in the extent
    can enter the top-k. The run ends at the first extent whose bound is
    strictly below the running k-th score (or within the caller's
    floor): an element tied with the k-th score may precede it in
    document order, so a tie never prunes. Requires the RPLs of every
    (term, sid) pair of the query; no entry of a foreign extent is ever
    read or skipped (DESIGN.md §9.1).

    With [ideal_heap] the paper's ITA variant is measured: the
    stop-clock is paused around top-k-heap operations so their cost is
    excluded from the reported time. *)

type stats = {
  sorted_accesses : int;  (** RPL entries consumed *)
  heap_operations : int;
      (** top-k heap work: levels visited by sifts, plus one per
          comparison of a newcomer against a full heap's root *)
  heap_pushes : int;  (** score updates offered to the top-k heap *)
  heap_evictions : int;
      (** offers to a full heap; each one leaves a candidate outside *)
  candidates : int;  (** distinct elements touched *)
  blocks_skipped : int;
      (** segment blocks dropped undecoded by the single-term floor
          skip (see DESIGN.md §7) *)
  extents_visited : int;  (** extents whose lists were read *)
  extents_skipped : int;
      (** extents left unread because their bound was settled by the
          running k-th score or the floor *)
  stopped_early : bool;  (** a visit's threshold fired or an extent was skipped *)
  elapsed_seconds : float;  (** heap time excluded when [ideal_heap] *)
  heap_seconds : float;  (** measured only when [ideal_heap] *)
  degraded : bool;
      (** the guard expired and [answers] is a best-effort partial
          top-k (partial sums are lower bounds, so the prefix is sound
          but uncertified) *)
}

exception Truncated_rpl
(** Raised when prefix-materialized RPLs (see [Rpl.build ~rpl_prefix])
    were too shallow to certify the requested top-k: the threshold over
    the truncation bounds could not prove that no dropped entry belongs
    in the answer. Rebuild with a deeper prefix (or full lists) and
    retry. *)

val run :
  Trex_invindex.Index.t ->
  sids:int list ->
  terms:string list ->
  k:int ->
  ?ideal_heap:bool ->
  ?floor:float ->
  ?guard:Trex_resilience.Guard.t ->
  unit ->
  Answer.t * stats
(** Top-k answers (descending score, document-order tie-break).

    [floor] (default 0) is a score known to be achieved by k answers
    elsewhere — the sharded coordinator's current global k-th score.
    The run may stop as soon as neither the threshold nor any partial
    candidate can exceed [floor]: every returned entry scoring
    {e strictly above} [floor] is exact and complete, while entries at
    or below it may be partial sums (their true rank is outside the
    global top-k, so scatter-gather filters them out).

    [guard] is ticked on every cursor advance and heap operation; on
    expiry the run returns the current candidates' partial-sum top-k
    with [degraded = true] instead of raising. With [ideal_heap] the
    pause/resume around heap operations is exception-safe, so an abort
    mid-heap-op cannot corrupt the paused-time measurement.

    @raise Rpl.Cursor.Missing_list when a required list is absent.
    @raise Invalid_argument when [k <= 0] or [terms] is empty. *)
