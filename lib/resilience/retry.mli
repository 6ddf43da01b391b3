(** Capped exponential backoff schedules, optionally with seeded
    decorrelated jitter.

    The shard supervisor spaces a dead worker's restarts by this
    schedule. The default schedule is fully determined by the policy —
    no jitter — so restart tests replay exactly. Peers that can fail {e together} (a fleet of remote shard
    workers reconnecting after a coordinator restart) opt into
    {!Decorrelated} jitter: still deterministic under a fixed seed,
    but spread per-peer by a salt so they cannot thundering-herd. *)

type jitter =
  | No_jitter  (** pure capped doubling — bit-replayable *)
  | Decorrelated of { seed : int }
      (** [min(cap, uniform(base, 3 * prev))] per step, drawn from a
          splitmix PRNG seeded by [(seed, salt)] — deterministic for a
          fixed pair, decorrelated across salts *)

type policy = {
  max_attempts : int;  (** schedule length plus one *)
  base_delay_ms : float;  (** first delay *)
  max_delay_ms : float;  (** cap on the doubling schedule *)
  jitter : jitter;  (** {!No_jitter} unless peers can herd *)
}

val default_policy : policy
(** 4 attempts, 1ms base, 16ms cap, no jitter. *)

val backoff_delays_ms : ?salt:int -> policy -> float list
(** The delay schedule (length [max_attempts - 1]). Deterministic for
    a fixed policy and [salt]; [salt] (default 0) only matters under
    {!Decorrelated} jitter, where each peer should pass its own (e.g.
    a hash of its name). Every delay lies in
    [[base_delay_ms, max_delay_ms]] either way. *)
