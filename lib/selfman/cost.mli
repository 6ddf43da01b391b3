(** Per-query cost/benefit profiles for index selection.

    The paper's formulas need, per workload query: evaluation time under
    ERA, Merge and TA; and the disk space of the RPLs/ERPLs the query
    needs (per (term, sid) list, because queries share lists). Profiles
    are either {e measured} against a live index — the paper's "the
    actual time savings and disk space... should be measured
    experimentally" — or constructed synthetically for solver tests. *)

type list_id = { term : string; sid : int }

type profile = {
  id : string;
  frequency : float;
  time_era : float;  (** seconds *)
  time_merge : float;
  time_ta : float;
  rpl_lists : (list_id * int) list;
      (** (list, bytes) needed by TA: the stored segment bytes the RPL
          catalog records for each list *)
  erpl_lists : (list_id * int) list;  (** (list, bytes) needed by Merge *)
  rpl_prefix : int option;
      (** when set, [rpl_lists] sizes are for prefix-truncated RPLs of
          this depth — the paper's S_RPL, "the part that TA reads till
          reaching the stopping condition" — and applying the plan must
          materialize with the same prefix *)
}

val saving_merge : profile -> float
(** [max (time_era - time_merge) 0 * frequency] — the paper's
    [f_i * delta_m(Q_i)]. *)

val saving_ta : profile -> float

val measure :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  ?runs:int ->
  ?prefix_rpls:bool ->
  Workload.query ->
  profile
(** Translate the query's NEXI against [index], materialize the
    translation's RPLs and ERPLs (if missing), time the three
    methods ([runs] repetitions, keeping the median — default 3), and
    read list sizes from the catalogs.

    With [prefix_rpls] (default false) the RPLs are then re-materialized
    truncated to the shallowest prefix that still certifies the query's
    top-[k] (found by doubling from TA's observed read count), and the
    profile charges TA only those bytes — the paper's S_RPL. *)

val make :
  id:string ->
  frequency:float ->
  time_era:float ->
  time_merge:float ->
  time_ta:float ->
  rpl_lists:(string * int * int) list ->
  erpl_lists:(string * int * int) list ->
  profile
(** Synthetic profile; lists given as (term, sid, bytes). *)
