(** Coordinator ↔ shard-worker and client ↔ server wire messages.

    The supervisor and its worker processes — and, since v3, front-door
    clients and the {!Trex_serve} daemon, plus remote (TCP) shard
    workers — speak JSON payloads inside {!Trex_util.Framing} CRC32
    frames over a socketpair or TCP stream. JSON keeps the protocol
    debuggable (a captured frame is readable) and the printer's
    [%.17g] floats round-trip [float] exactly, so scores cross the wire
    bit-identical and the coordinator's merged ranking matches the
    single-environment engine answer for answer.

    Docids in {!answer} are {e shard-local}; the coordinator adds the
    shard's base. Decoding a malformed payload raises {!Protocol_error}
    — like a CRC failure, it is connection-fatal (the supervisor treats
    it as a worker failure and restarts the process).

    {b Versioning.} [version] is the wire revision both ends must
    share. A worker announces its version in {!response.Hello}; the
    coordinator's decoder raises {!Protocol_error} on a mismatch (or a
    missing version field, which identifies a v1 worker), and a newer
    worker decoding an older coordinator's query fails on the missing
    telemetry fields — a mid-upgrade mixed fleet fails loud in both
    directions instead of silently dropping telemetry. *)

exception Protocol_error of string

val version : int
(** Current wire revision (8: the answer is the shard's
    {!Shard.reply}, storage fallbacks included; 7: the answer drops the shard's translated
    terms — the self-manager translates a query's NEXI itself; 6: the
    query drops its journal flag and the answer carries the shard's
    translated terms in place of a journal record — workers never
    journal; 5: the query no longer carries a
    scoring config, workers score with the default scorer; 4 added the
    answer's typed evaluation failure; 3 client serving messages +
    remote workers; 2 the per-query telemetry harvest). *)

type query = {
  q_nexi : string;
  q_k : int;
  q_method : Trex_topk.Strategy.method_ option;  (** force one method *)
  q_strict : bool;
  q_floor : float;  (** global k-th score at dispatch time *)
  q_deadline_ms : float option;  (** this worker's slice of the deadline *)
  q_page_budget : int option;  (** this worker's slice of the page budget *)
  q_fault : string option;
      (** one-shot fault to arm before evaluating, ["action:point"]
          (e.g. ["kill:pre-reply"]) — see {!Supervisor.worker_main} *)
  q_trace : bool;
      (** collect a span tree during evaluation and ship it in the
          answer *)
  q_trace_id : string option;
      (** coordinator-chosen id stamped on the worker's root span so a
          multi-query trace stays attributable *)
}

(** A front-door client's request. Unlike {!query} it carries no
    floor, fault, or telemetry knobs — those belong to the
    coordinator↔worker conversation. The deadline and page budget are
    {e requests}: the server clamps them to its own policy before
    carving a {!Trex_resilience.Guard} slice. *)
type client_query = {
  c_nexi : string;
  c_k : int;
  c_method : Trex_topk.Strategy.method_ option;
  c_strict : bool;
  c_deadline_ms : float option;
  c_page_budget : int option;
}

type request =
  | Ping of int  (** heartbeat, echo the seq *)
  | Query of query
  | Client_query of client_query
  | Shutdown

type answer = {
  a_reply : (Shard.reply, string) result;
      (** the shard's {!Shard.reply_of} (shard-local docids, storage
          fallbacks as method plus error), or the text of a per-query
          failure the worker survives (a forced method over lists this
          shard lacks): the coordinator tags the shard with it and
          records a breaker failure *)
  a_spans : Trex_obs.Span.t list;
      (** the worker's span tree for this query ([] unless
          [q_trace]) *)
  a_counters : (string * int) list;
      (** registry counter delta over the evaluation — what the
          coordinator folds into its own registry *)
}

(** What a front-door client gets back: global docids, the "never
    wrong, possibly partial, always tagged" contract on the wire. *)
type client_answer = {
  ca_answers : Trex_topk.Answer.t;  (** global (coordinator) docids *)
  ca_k : int;
  ca_degraded : bool;
  ca_tags : (string * string) list;
      (** (source, reason) for every degradation — shard names under a
          coordinator, table/strategy names under a single env *)
  ca_method : string option;
      (** the method every evaluated shard (or the plain env) used;
          [None] when they differ or nothing was evaluated *)
  ca_elapsed_s : float;
      (** server-side wall time of the query call — parse, translate,
          scatter and evaluation; queueing excluded *)
}

type response =
  | Hello of { h_shard : string; h_pid : int; h_docs : int; h_wire : int }
      (** readiness handshake, sent once after the worker attaches (or
          by the serve daemon on accept); [h_wire] must equal [version]
          or decoding fails *)
  | Pong of int
  | Answer of answer
  | Client_answer of client_answer
  | Shed of { retry_after_ms : float; reason : string }
      (** admission control refused the request {e before} queueing it:
          try again after [retry_after_ms]. Terminal for the request,
          not the connection. *)
  | Drain
      (** the server is draining (SIGTERM): it will not accept new
          work; finish reading in-flight replies and reconnect
          elsewhere *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response
