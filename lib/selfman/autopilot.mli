(** Closed-loop self-management.

    The paper assumes "a set of typical queries that are frequently
    being posed to the system" is given as a workload; this module
    closes the loop: it {e observes} executed queries, derives the
    workload from their empirical frequencies, and re-plans (and
    re-materializes) the redundant indexes when the observed mix has
    drifted from the one the current plan was built for.

    An observation is a query's NEXI text and k; the text is translated
    against the index when the autopilot plans or heals, never before,
    so documents added since the query ran are planned for. Replanning
    measures query costs, which temporarily materializes the workload's
    lists; {!Advisor.apply} then leaves exactly the plan's lists, so
    the budget holds. *)

type t

val create :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  budget:int ->
  ?min_observations:int ->
  ?drift_threshold:float ->
  unit ->
  t
(** [min_observations] (default 20): executions to collect before the
    first plan. [drift_threshold] (default 0.25): half the L1 distance
    between the frequency vector the current plan was built for and the
    current one (total-variation distance, in [0,1]) that triggers
    replanning. *)

val record : t -> nexi:string -> k:int -> unit
(** Note one executed query, identified by
    [Trex_obs.Journal.digest_of nexi]; [k] is remembered from the
    latest execution. @raise Trex_nexi.Parser.Syntax_error, recording
    nothing, when [nexi] does not parse. *)

val absorb_journal : t -> Trex_obs.Journal.record list -> int
(** {!record} every journal entry's [label] ([k] clamped to at least 1)
    and return how many were absorbed. A label that does not parse is
    skipped and not counted: the journal is a file, its contents
    outside input. This is the bridge from persisted telemetry to drift
    detection: replay the env's journal into a fresh autopilot and
    {!maybe_replan} plans for the workload the system {e actually}
    served. *)

val observations : t -> int
val observed_frequencies : t -> (string * float) list
(** Sorted by id; empty before any {!record}. *)

val current_plan : t -> Advisor.plan option

type verdict =
  | Too_few_observations of int  (** have, need [min_observations] *)
  | No_drift of float  (** measured distance below the threshold *)
  | Replanned of { plan : Advisor.plan; drift : float }

val maybe_replan : t -> verdict
(** Check drift and, when warranted, measure the observed workload,
    solve (greedy) under the budget and {!Advisor.apply} the plan. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Healing}

    The other half of the closed loop: when a query trips a table's
    circuit breaker (corruption — see [Trex_storage.Env]), the
    autopilot schedules the repair. Redundant
    tables (RPL/ERPL lists and their catalogs) are quarantined as
    (lists, catalog) pairs — dropping one without the other would leave
    a catalog advertising lists that don't exist, i.e. silent wrong
    answers — then rebuilt: the current plan's lists of the condemned
    kind, or before any plan every observed query's — then probed. The
    rebuild is an ordinary [Rpl.build], one redo-logged operation
    durable on return, so an interrupted heal leaves each list whole or
    absent and the breakers open for the next pass to retry. Base
    tables have no substitute, so they are only probed in place. *)

type heal_action =
  | Cooling_down  (** breaker open, cooldown not yet elapsed *)
  | Rebuilt of { tables : string list; entries_written : int }
      (** pair quarantined, the plan's lists rebuilt,
          probe verified clean; breakers closed. Bumps
          ["resilience.rebuilds"]. *)
  | Probe_ok  (** non-redundant table verified clean; breaker closed *)
  | Still_failing of string  (** probe or rebuild failed; breaker re-opened *)

type heal = { table : string; action : heal_action }

val maybe_heal : t -> heal list
(** Visit every non-Closed breaker in the engine's environment. A
    breaker still inside its cooldown reports {!Cooling_down}; once
    [Breaker.allow] admits the probe, redundant pairs are quarantined,
    rebuilt and re-verified, base tables just re-verified, and the
    breakers closed or re-opened accordingly. Idempotent when all
    breakers are closed (returns [[]]). *)

val pp_heal : Format.formatter -> heal -> unit
