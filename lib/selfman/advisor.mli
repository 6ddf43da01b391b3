(** Index-selection under a disk budget (paper §4).

    For each workload query, decide whether to materialize the ERPLs it
    needs (so Merge can run), the RPLs (so TA can run), or neither —
    maximizing the frequency-weighted time saving over ERA subject to
    the total bytes of the {e union} of chosen lists (queries share
    lists) staying within the budget.

    Two solvers, as in the paper: an exact 0/1 branch-and-bound (the
    boolean linear program of §4.1) and the greedy gain-cost-ratio
    2-approximation of §4.2. *)

type choice =
  | No_index
  | Use_erpl  (** materialize the query's ERPLs (so Merge can run) *)
  | Use_rpl  (** materialize the query's RPLs (so TA can run) *)

type plan = {
  decisions : (string * choice) list;  (** per query id, workload order *)
  bytes_used : int;  (** size of the union of selected lists *)
  expected_saving : float;  (** Σ f_i · Δ(Q_i) over supported queries *)
}

val choice_to_string : choice -> string

val greedy : budget:int -> Cost.profile list -> plan
(** The multiple-choice knapsack greedy: repeatedly take the move with
    the best ratio of {e incremental} frequency-weighted saving to
    {e incremental} bytes of the chosen lists' union (lists already
    chosen are free) — a query takes an option, or switches its chosen
    option to the other one — until no saving move fits; then return
    the better of that plan and the best single option. 2-approximation
    (Theorem 4.2). *)

val branch_and_bound : budget:int -> Cost.profile list -> plan
(** Exact optimum. Exponential in the number of queries — intended for
    small workloads, as the paper prescribes for the LP route. *)

val plan_bytes : Cost.profile list -> (string * choice) list -> int
(** Bytes of the union of the lists implied by the decisions. *)

val plan_saving : Cost.profile list -> (string * choice) list -> float

val apply :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  workload:Workload.t ->
  ?profiles:Cost.profile list ->
  plan ->
  unit
(** Replace the environment's lists with exactly the plan's: translate
    each selected query's NEXI against [index], drop every stored list
    the plan does not select, and materialize the missing ones (building
    via ERA). The drops are one redo-logged operation
    ([Rpl.drop_lists]) and each query's build another ([Rpl.build]), so
    a crash anywhere leaves every list whole or gone, and every list the
    plan keeps in place. When [profiles] are supplied, RPL choices honour
    each profile's [rpl_prefix] (prefix-truncated lists, the paper's
    S_RPL); a list shared between queries keeps the depth of whichever
    query materialized it first. *)
