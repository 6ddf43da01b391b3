(** In-memory profile aggregator over journal records.

    Folding a stream of {!Journal.record}s produces the continuous-
    profiling view: per-query-digest latency histograms and per-strategy
    histograms (both registered in the {!Metrics} registry under
    [profile.query.<digest>.ms] / [profile.strategy.<name>.ms], so they
    show up in [stats] dumps and [Metrics.to_json] like every other
    metric), a top-N slow-query list, and degraded tallies. *)

type t

val create : ?slow_capacity:int -> unit -> t
(** [slow_capacity] bounds the slow-query list (default 10). *)

val observe : t -> Journal.record -> unit

val of_records : ?slow_capacity:int -> Journal.record list -> t

val total : t -> int
(** Records observed. *)

type stat = {
  key : string;  (** Digest or strategy name. *)
  label : string;  (** Latest NEXI text seen for the key, or [""]. *)
  n : int;
  share : float;  (** n / total — the observed workload frequency. *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  degraded : int;
}

val by_digest : t -> stat list
(** One row per distinct query digest, most frequent first. *)

val by_strategy : t -> stat list
(** One row per strategy, most frequent first. *)

val slowest : t -> Journal.record list
(** Top-N slowest records, slowest first. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
