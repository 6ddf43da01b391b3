(** Threshold algorithm over RPLs (paper §3.3, TopX-style).

    One descending-score {!Rpl.Term_cursor} per query term, merging that
    term's per-(term, sid) RPLs over the query sids, is consumed
    round-robin; partial sums accumulate per element, an indexed
    min-heap of at most k candidates maintains the current top-k, and
    the run stops when the threshold — the sum of the last score seen
    in each list — proves no unseen or partially-seen element can enter
    the top-k. Requires the RPLs of every (term, sid) pair of the query.
    Unlike the paper's full-term lists (§3.3), no entry of a foreign
    extent is ever read or skipped (DESIGN.md §9.1).

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
  stopped_early : bool;  (** threshold fired before exhausting lists *)
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
