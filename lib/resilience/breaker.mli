(** Per-resource circuit breaker.

    [Env] keeps one breaker per table. A {!trip} (corruption) opens
    the circuit; {!allow} rejects callers while open, then lets a
    single probe through once the cooldown elapses
    (half-open); {!record_success} closes the circuit again,
    {!record_failure} re-opens it. [Strategy.available] consults
    breaker state so query planning routes around quarantined tables,
    and [Autopilot.maybe_heal] drives rebuild + probing.

    State transitions bump ["resilience.breaker_trips"] and
    ["resilience.breaker_closes"]. Time is the monotonic
    {!Trex_util.Stopclock.now} clock, so a wall-clock step can neither
    end a cooldown early nor extend it; the cooldown is mutable so
    tests (and the autopilot) can force immediate probes. *)

type state = Closed | Open | Half_open
type t

val create : ?failure_threshold:int -> ?cooldown_s:float -> string -> t
(** [create name] starts Closed. [failure_threshold] consecutive
    {!record_failure}s open the circuit (default 3; {!trip} opens it
    immediately regardless). [cooldown_s] defaults to 30s. *)

val name : t -> string
val state : t -> state

val allow : t -> bool
(** Whether a caller may use the resource now. Closed: yes. Open: no,
    unless the cooldown has elapsed, in which case the breaker moves to
    Half_open and admits this caller as the single probe. Half_open:
    only if no probe is in flight — the admitted caller owns the probe
    slot until {!record_success} closes the circuit or
    {!record_failure}/{!trip} re-opens it, so a probe that dies without
    reporting (e.g. its guard budget expires and the caller walks away)
    must be failed explicitly or the slot stays taken. *)

val probing : t -> bool
(** A half-open probe has been admitted and not yet resolved. *)

val ready : t -> bool
(** Whether {!allow} would admit a caller right now, {e without} taking
    the probe slot — the planning-time check. Callers that will
    actually touch the resource must still call {!allow}. *)

val trip : t -> reason:string -> unit
(** Open the circuit immediately (corruption). *)

val record_failure : t -> reason:string -> unit
(** Count a failure; opens the circuit from Half_open or once the
    consecutive-failure threshold is reached. *)

val record_success : t -> unit
(** Close the circuit (from any state) and clear the failure count. *)

val last_reason : t -> string option
(** Why the circuit last opened, if it ever did. *)

val set_cooldown : t -> float -> unit
val cooldown_s : t -> float

val state_to_string : state -> string
