(** Process-isolated shard workers: supervised scatter-gather.

    The in-process coordinator ({!Shard.query}) contains shard faults
    only as far as OCaml exceptions reach — a segfault, a runaway
    allocation or a wedged loop in one shard takes the whole engine
    down. This supervisor moves each shard into its own worker process
    ([trex_cli shard-worker], fork/exec'd from the coordinator) and
    speaks {!Wire} messages over a socketpair, so the blast radius of
    any shard failure is one process:

    - {b Lifecycle.} Each worker is spawned, handshaken (it sends
      [Hello] once its index is attached), heartbeated ([Ping]/[Pong]
      while idle), and on any death — exit, EPIPE, heartbeat timeout,
      deadline kill, protocol corruption — restarted with capped
      exponential backoff from a {!Trex_resilience.Retry.policy}. After
      [max_restarts] consecutive restarts without a successful answer
      the shard's {!Trex_resilience.Breaker} is tripped (escalation):
      queries degrade to tagged partials until the cooldown elapses,
      then one respawn is admitted as the half-open probe.
    - {b Scatter.} {!query} is the in-process coordinator's scatter
      core ({!Shard.scatter}) with workers as the dispatch, so a query
      over all-healthy workers is answer-identical to {!Shard.query}
      and to the single-environment engine; a worker that blows its
      deadline slice is SIGKILLed and restarted.
    - {b Worker state machine.} [Starting → Ready ⇄ Busy], any death →
      [Stopped(backoff)] → [Starting]; restarts exhausted →
      [Escalated] → (breaker cooldown) → [Starting] as probe. See
      DESIGN.md §6.
    - {b Telemetry harvest.} When span tracing is enabled
      coordinator-side, each dispatch asks the worker to trace; every
      answer ships the worker's span tree (when traced) and a registry
      counter delta. The coordinator
      grafts the span tree under a [supervisor.worker] span and folds
      the counter delta into its own registry (merged totals plus
      per-shard [worker.<shard>.*] views); the scatter then writes the
      query's one journal record — the in-process coordinator's shape,
      with per-shard breakdown — to [<dir>/query_journal.qj]. Workers
      never journal. A worker that dies mid-query leaves a tagged
      partial trace and contributes nothing to the registry, and the
      record marks it [lost:<shard>]: telemetry degrades, it never
      lies.

    The supervisor is single-threaded: heartbeats and restarts advance
    inside {!query}, {!tick} and {!await_healthy} — an idle coordinator
    must call {!tick} periodically (the CLI and tests do). *)

type config = {
  heartbeat_interval_s : float;  (** idle ping cadence (default 0.5) *)
  heartbeat_timeout_s : float;
      (** no [Pong]/[Hello] for this long → kill and restart
          (default 2.0); also bounds the readiness handshake *)
  deadline_grace_ms : float;
      (** slack past a worker's deadline slice before it is killed
          (default 250) — covers wire and scheduling latency *)
  max_restarts : int;
      (** consecutive restarts (no successful answer between) before
          escalating to the breaker (default 3) *)
  restart_policy : Trex_resilience.Retry.policy;
      (** backoff schedule between restarts, kept on the supervisor's
          own clock. The schedule is salted per shard, so a
          {!Trex_resilience.Retry.Decorrelated} policy keeps a fleet of
          reconnecting remote workers from thundering-herding; the
          default [No_jitter] stays bit-replayable *)
  connect_timeout_s : float;
      (** bound on a remote (TCP) worker connect (default 1.0); a
          refused or timed-out connect counts as a worker death and
          follows the same backoff/escalation path *)
}

val default_config : config

type worker_state = Starting | Ready | Busy | Stopped | Escalated

type worker_health = {
  w_shard : string;
  w_state : worker_state;
  w_pid : int option;  (** [None] when no process is running *)
  w_restarts : int;  (** consecutive restarts since the last answer *)
  w_total_restarts : int;
      (** lifetime worker deaths (restarts + escalations), never
          reset — the "how flaky has this shard been" number *)
  w_breaker : Trex_resilience.Breaker.state;
  w_beat_age_s : float option;
      (** seconds since the last sign of life (hello/pong/answer) *)
}

type t

val create : ?config:config -> ?remote:(string * string) list -> string -> t
(** Open coordinator directory [dir] in process-isolated mode: read the
    shard map through {!Shard.load_map} (the recovering read: an
    interrupted map change is settled, leftover shard directories and
    stale worker artifacts are swept), and spawn one worker per shard
    (handshakes complete asynchronously — see {!await_healthy}).
    Ignores [SIGPIPE] process-wide (a dead worker must surface as
    [EPIPE], not kill the coordinator).
    @raise Shard.Not_a_coordinator
    @raise Shard.Map_unresolved

    [remote] maps shard names to ["HOST:PORT"] addresses of long-lived
    {!worker_listen} processes. A remote shard's "spawn" is a bounded
    TCP connect; every other part of the state machine — Hello
    handshake, heartbeats, deadline kills (a dropped connection), the
    telemetry harvest, backoff restarts, breaker escalation — is
    identical to a local worker, and reconnects follow the same
    (optionally jittered) restart policy. Unknown names raise
    [Invalid_argument]. *)

val close : t -> unit
(** Politely [Shutdown] every worker, reap stragglers with SIGKILL. *)

val dir : t -> string
val shards : t -> Shard.shard_info list

val breaker : t -> string -> Trex_resilience.Breaker.t
(** The named shard's breaker (escalation target). *)

val worker_pid : t -> string -> int option
(** The live worker process for a shard, if any — this is how the kill
    matrix aims its external [SIGKILL]s (the "pre-scatter" point). *)

val health : t -> worker_health list

val tick : t -> unit
(** Advance supervision: pump worker fds, send due heartbeats, kill
    heartbeat-timeouts, respawn workers whose backoff elapsed, admit
    escalated workers' half-open probes. Non-blocking. *)

val await_healthy : ?timeout_s:float -> t -> bool
(** Drive {!tick} until every worker is [Ready] (true) or the timeout
    elapses (false, default 5s). Escalated workers count as unhealthy:
    callers that expect them to recover must clear or shorten the
    breaker cooldown first. *)

val set_fault : t -> shard:string -> string option -> unit
(** Arm a one-shot ["action:point"] fault to ride along on the next
    query dispatched to [shard] (see {!worker_main}); [None] disarms. *)

val query :
  t ->
  ?k:int ->
  ?method_:Trex_topk.Strategy.method_ ->
  ?strict:bool ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  ?fanout:int ->
  string ->
  Shard.result
(** {!Shard.scatter} with a worker round trip as the dispatch: waves
    of [fanout] workers (default: all at once) evaluate concurrently
    with {!Trex.evaluate}, so floors, slices, skip tags and the merge
    are {!Shard.query}'s own. Process-specific tags: worker
    starting, restarting, escalated, died, or killed for its deadline
    slice. A malformed query raises [Trex_nexi.Parser.Syntax_error]
    before any worker sees it; a forced method over lists a shard
    lacks comes back as a tagged failure, and the worker stays up. *)

val sockaddr_of_string : string -> Unix.sockaddr
(** ["HOST:PORT"] (an empty host is the loopback) as a socket address.
    @raise Invalid_argument on a malformed address or an unknown host. *)

val connect_with_timeout : Unix.sockaddr -> timeout_s:float -> Unix.file_descr option
(** A bounded TCP connect with Nagle off: [None] when refused or timed
    out. Remote workers and the serve front door's clients use it. *)

val worker_main : dir:string -> shard:string -> unit -> 'a
(** The worker-process entry point ([trex_cli shard-worker --dir D
    --shard S] — and the test/bench executables dispatch here too,
    since workers exec their parent's binary). Attaches the shard once
    ([Env.open_with_recovery], then {!Trex.attach}: the scorer and the
    corpus-wide statistics stored in the shard; a shard without them
    fails its attach, exit 1), writes [worker.pid], answers each query with
    {!Trex.evaluate} over {!Wire} requests on stdin/stdout (the protocol fds are dup'd
    away and stdout is re-pointed at stderr first, so stray prints
    cannot tear frames), and exits on [Shutdown] or EOF. Never
    returns.

    Fault arming (for the kill matrix): a query's [q_fault] — or the
    [TREX_WORKER_FAULT] environment variable at startup — arms one
    ["action:point"] fault, where action ∈ [kill] (SIGKILL self),
    [exit] (exit 3), [stop] (SIGSTOP self, the heartbeat wedge),
    [wedge] (sleep forever), [stale-pong] (answer the next [Ping] with
    a stale sequence number — a heartbeat-integrity fault, point
    [ping]) and point ∈ [mid-decode] (before evaluating), [pre-reply]
    (after evaluating, before the answer frame), [post-reply] (after
    the answer frame), [ping] (on the next heartbeat). Faults fire
    once and disarm. *)

val worker_listen : dir:string -> shard:string -> addr:string -> unit -> 'a
(** The remote-worker entry point ([trex_cli shard-worker --dir D
    --shard S --listen HOST:PORT]). Binds [addr] (printing the bound
    address to stderr as ["LISTENING HOST:PORT"] — useful with port
    0), attaches the shard once, then serves one coordinator
    conversation per accepted connection: same protocol, same fault
    points, same telemetry harvest as {!worker_main}. A coordinator
    hanging up — or killing the connection to enforce a deadline —
    returns the process to accept; its lifetime is decoupled from any
    coordinator. Exits on [Shutdown]. Never returns. *)
