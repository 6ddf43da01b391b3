(** trex_serve: an overload-safe network front door.

    [trex_cli serve --dir D --addr HOST:PORT] runs a single-threaded
    daemon that accepts {!Trex_shard.Wire} client conversations
    ([Client_query] in, [Client_answer]/[Shed]/[Drain] out over the
    same CRC-framed transport the shard workers speak) and evaluates
    them against [D] through one query path, picked at startup: a
    scatter over a {!Trex_shard.Supervisor}'s process-isolated or
    remote workers when [D] is a shard-coordinator directory, else
    {!Trex_shard.Shard.query_env}, the one-shard plan of a plain index
    environment. Every answer is built from the scatter's result in one
    place, so tags, method and elapsed time mean the same on both.

    The contract extends "never wrong, possibly partial, always
    tagged" with "never queued past its deadline":

    - {b Shed before queue.} Every request carries (or is assigned) a
      deadline. If the bounded queue is full, or the estimated backlog
      wall time (queue depth x EWMA service time) already exceeds the
      request's deadline, the server answers a typed
      [Shed { retry_after_ms; reason }] {e immediately} — overload
      makes the server fast and honest, never silently slow. A request
      that was admitted but reaches the head of the queue past its
      deadline is shed, not run.
    - {b Guard slices.} An admitted request runs under a
      {!Trex_resilience.Guard} carved from whatever remains of its
      deadline (and its page budget), both clamped by server
      {!policy} — a client cannot ask one query to hold the event loop
      hostage. Degraded evaluations return tagged partials exactly as
      the underlying engine reports them.
    - {b Slowloris defense.} A connection that starts a frame and
      dribbles it is cut off once the frame is [frame_timeout_s] old —
      mirroring {!Trex_util.Framing.recv_deadline}'s anchored-deadline
      semantics inside the select loop; silent connections are closed
      after [idle_timeout_s]. Both disconnect the peer, never stall
      the server.
    - {b Connection breakers.} Protocol violations (worker-protocol
      frames on the client port, undecodable requests) strike the
      peer's per-IP {!Trex_resilience.Breaker}; corrupt frames and
      write stalls disconnect immediately. A tripped peer is refused
      at accept until the cooldown elapses.
    - {b Graceful drain.} SIGTERM/SIGINT stop the accept loop,
      broadcast [Drain], then finish or shed the queued work within
      [drain_budget_s]; the serve journal is fsynced and {!run}
      returns 0. A client never sees a torn frame: every admitted
      request terminates as exactly one of answer, tagged partial, or
      [Shed].

    Observability: [serve.*] counters (accepts, answers, sheds,
    drains, strikes, timeouts) and a dedicated append-only journal
    ([D/serve_journal.qj]) recording every shed or drained request
    with its reason. *)

(** {1 Policy} *)

type policy = {
  queue_limit : int;  (** admitted-but-unstarted requests (default 32) *)
  default_deadline_ms : float;
      (** deadline assigned to requests that carry none (default 2000) *)
  max_deadline_ms : float;
      (** clamp on client-requested deadlines (default 30_000) *)
  max_page_budget : int option;
      (** clamp on client-requested page budgets (default [Some 500_000]) *)
  max_k : int;  (** clamp on requested k (default 1000) *)
  frame_timeout_s : float;
      (** max age of an incomplete request frame (default 10) *)
  idle_timeout_s : float;
      (** close connections silent this long (default 300) *)
  write_timeout_s : float;
      (** a client that won't drain its answer is disconnected
          (default 10) *)
  breaker_strikes : int;
      (** protocol violations before the peer's breaker trips
          (default 3) *)
  breaker_cooldown_s : float;
      (** how long a tripped peer is refused at accept (default 30) *)
  drain_budget_s : float;
      (** SIGTERM: finish or shed queued work within this bound
          (default 5) *)
}

val default_policy : policy

(** {1 Server} *)

val run :
  ?policy:policy ->
  ?remote:(string * string) list ->
  ?listen_fd:Unix.file_descr ->
  ?on_ready:(string -> unit) ->
  dir:string ->
  addr:string ->
  unit ->
  int
(** Serve [dir] on [addr] ("HOST:PORT"; port 0 binds an ephemeral
    port) until a drain completes; returns the process exit code (0 on
    clean drain). A coordinator [dir]
    ({!Trex_shard.Shard.is_coordinator}) is served through
    {!Trex_shard.Supervisor.query} ([remote] names shards served by {!
    Trex_shard.Supervisor.worker_listen} processes, as in
    {!Trex_shard.Supervisor.create}); any other [dir] is attached as a
    plain index environment and served through
    {!Trex_shard.Shard.query_env}, whose evaluation errors are shed as
    [error]. [on_ready] is called once with the actual
    bound ["HOST:PORT"] before the first accept. [listen_fd] hands the
    server an already-bound, already-listening socket (tests bind port
    0 in the parent, fork, and pass the fd — no port race); [addr] is
    then only documentation. Installs SIGTERM/SIGINT handlers that
    request a drain. *)

(** {1 Client} *)

module Client : sig
  (** The matching front-door client: connect, speak one or more
      requests, interpret the typed replies. Reads run under
      {!Trex_util.Framing.recv_deadline}, so a stalled or vanished
      server surfaces as {!Unreachable}, never a hang. *)

  exception Unreachable of string
  (** Connect refused/timed out, server hung up, or reply deadline
      expired. *)

  type t

  type reply =
    | Answer of Trex_shard.Wire.client_answer
    | Shed of { retry_after_ms : float; reason : string }
    | Draining

  val connect : ?timeout_s:float -> string -> t
  (** Connect to ["HOST:PORT"] and consume the server's [Hello]
      (wire-version checked by decoding). Default timeout 5s, covering
      both the TCP connect and the handshake. *)

  val request :
    ?timeout_s:float -> t -> Trex_shard.Wire.client_query -> reply
  (** Send one query and wait for its terminal reply (default timeout
      30s). A [Drain] broadcast racing ahead of the answer is folded
      into the wait: the reply is whatever terminal frame the server
      sends for {e this} request, [Draining] only if the connection
      drains/closes without one. *)

  val send : t -> Trex_shard.Wire.request -> unit
  (** Fire one raw request frame without waiting — the pipelining
      half of {!collect_terminal}. *)

  val collect_terminal : ?timeout_s:float -> t -> reply
  (** Wait for the next terminal frame ([Client_answer] or [Shed]),
      folding [Drain]/heartbeat frames into the wait as {!request}
      does. With [n] pipelined {!send}s, [n] collects see each
      request's fate exactly once, in order. *)

  val fd : t -> Unix.file_descr
  (** The raw connection — for tests that must misbehave on it. *)

  val ping : ?timeout_s:float -> t -> bool
  (** Liveness probe: [Ping]/[Pong] roundtrip. *)

  val close : t -> unit
end
