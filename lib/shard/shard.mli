(** Fault-tolerant sharded scatter-gather top-k.

    A coordinator partitions a corpus by docid into N independent
    storage environments ("shards"), each a complete TReX index over
    its slice, and serves queries by scattering the evaluation across
    shards and gathering a global ranking. Three properties drive the
    design:

    - {b Rank identity.} Each shard scores with corpus-wide statistics
      stored in its own environment ([Index.pin_corpus]), and the gather
      passes each shard the coordinator's current global k-th score as
      a {e floor} ([Strategy.evaluate_resilient ~floor]) — Fagin's
      threshold composes across shards, so a shard stops reading pages
      once its local threshold proves it cannot beat the floor, and
      the merged answer is identical to a single-environment engine
      over the same corpus.
    - {b Degraded, never wrong.} Every shard evaluation runs behind
      its own circuit breaker and a guard slice carved from the
      query's remaining deadline / page budget. A tripped, slow,
      crashed or blocked shard contributes nothing; the query still
      answers from the surviving shards, with the missing shards named
      in {!result.degraded_shards} (the CLI exits 3 on such partials).
    - {b Crash-atomic rebalance.} A coordinator directory is an
      environment whose [shardmap] table holds the shard map, and every
      map change is one redo-logged [Env.run_logged_op]. {!split} and
      {!merge} build their new shard directories first, then commit the
      new map, then remove the sources: a crash at any point leaves the
      old map or the new one, and the next {!open_} removes every
      [shard-NNN] directory that map does not name — a document is
      always in exactly one servable shard, never zero or two. A
      directory the map names but the disk lacks blocks that shard, and
      nothing is removed. *)

type shard_info = { name : string; base : int; docs : int }
(** One shard of the map: global docids [base .. base + docs - 1]
    live in environment directory [name] (local docids [0 .. docs-1]). *)

type t

val create :
  dir:string ->
  shards:int ->
  ?summary_criterion:Trex_summary.Summary.criterion ->
  ?alias:Trex_summary.Alias.t ->
  ?analyzer:Trex_text.Analyzer.config ->
  (string * string) list ->
  t
(** [create ~dir ~shards docs] partitions [docs] (in order — position
    is the global docid) into [shards] contiguous slices of near-equal
    document count, builds one index per slice under [dir/shard-NNN/],
    pins the full-corpus scoring statistics in each slice's environment
    (document count, mean element length, and each term's df — so a
    quarantined or lost shard never changes the scores the surviving
    shards produce), commits the shard map to the coordinator
    environment in [dir] and opens the coordinator. @raise
    Invalid_argument when [shards] is not positive or exceeds the
    document count. *)

val open_ : string -> t
(** Open an existing coordinator directory through the one recovering
    read of its map (see {!load_map}). Each shard attaches with the
    statistics stored in its environment. A shard that fails its attach
    is blocked with the exception's text as its reason: one whose
    directory is missing, one of another format version, or one with
    no pinned statistics ([Index.Unpinned_statistics], a plain
    environment in a shard slot). Queries then give tagged partial
    answers, never ones scored with per-shard statistics.
    @raise Not_a_coordinator
    @raise Map_unresolved *)

val close : t -> unit
val abort : t -> unit
(** Test hook: abandon every shard environment as a crashed process
    would (no flushes, no closing appends). *)

val dir : t -> string

val shards : t -> shard_info list
(** The full shard map, ascending [base] — including shards that
    failed to attach (see {!health}). *)

val blocked : t -> (string * string) list
(** Shards excluded from serving, with reasons: their attach failed
    (a missing directory among them). Queries tag these in
    {!result.degraded_shards}. *)

val breaker : t -> string -> Trex_resilience.Breaker.t
(** The named shard's circuit breaker (created on demand; breakers
    survive rebalance by name). *)

exception Not_a_coordinator of string
(** The directory holds no shard map. Raised before anything in it is
    opened or written. *)

exception Map_unresolved of string
(** The coordinator environment's replay could not settle a map change
    a crash interrupted, so which map is current is unknown. Raised
    before any directory is removed; nothing is written, and the next
    open replays the change again. *)

val is_coordinator : string -> bool
(** Whether the directory holds a shard map. *)

val load_map : string -> shard_info list
(** The shard map of a coordinator directory, ascending [base], read
    without attaching any shard — how a {!Supervisor} learns the layout
    before spawning workers. The one recovering read {!open_} uses too:
    the coordinator environment replays a map change a crash
    interrupted; then every [shard-NNN] subdirectory the map does not
    name is removed — unless a directory the map names is missing, when
    nothing is — and orphaned worker droppings ([worker.pid] whose
    process is gone, any [worker.sock]) are removed from the shard
    directories, each bumping ["supervisor.stale_sweeps"].
    @raise Not_a_coordinator
    @raise Map_unresolved *)

val coordinator_journal : string -> Trex_obs.Journal.t Lazy.t
(** [coordinator_journal dir] is [dir/query_journal.qj], the
    coordinator environment's journal file, opened when forced: where
    both shard dispatches journal their queries. *)

val attach_shard : string -> Trex_storage.Env.t * Trex.t
(** [attach_shard sdir] opens the shard directory [sdir]
    ([Env.on_disk], which replays its manifest) and attaches its engine
    with the scorer and corpus-wide statistics stored in it — the one
    attach of a shard, by {!open_}, a rebalance and a shard worker.
    @raise Failure when [sdir] is missing
    @raise Trex_invindex.Index.Unpinned_statistics on a plain
    environment, the environment closed again *)

val index_of : t -> string -> Trex_invindex.Index.t option
(** The attached shard's index, scoring with its stored corpus-wide
    statistics — for tests and tools that evaluate one shard directly;
    [None] when the shard is unknown or quarantined. *)

type shard_report = {
  r_shard : string;
  r_method : Trex_topk.Strategy.method_ option;
      (** the reply's [method_used] *)
  r_entries_read : int;
  r_elapsed_seconds : float;
  r_kept : int;
      (** answers kept after the floor filter and the shard's top-k *)
  r_floor : float;  (** global k-th score when this shard ran *)
  r_fallbacks : Trex_topk.Strategy.failover list;
      (** methods this shard's evaluation abandoned after storage
          failures, as its reply carried them *)
}

type result = {
  answers : Trex_topk.Answer.t;  (** global top-k, descending score *)
  k : int;
  degraded : bool;  (** some shard could not contribute fully *)
  degraded_shards : (string * string) list;
      (** (shard, reason) for every shard that was skipped, failed,
          or returned a partial — the answers are a sound ranking of
          what the remaining shards hold *)
  reports : shard_report list;  (** per evaluated shard, scatter order *)
  fallbacks : Trex_topk.Strategy.failover list;
      (** methods the shards' evaluations abandoned after storage
          failures, in reply order — not a degradation, the answers are
          complete. Worker replies carry them too, so every dispatch
          reports the same list *)
}

val method_used : result -> Trex_topk.Strategy.method_ option
(** The method every evaluated shard used; [None] when they differ or
    no shard replied. The serve reply's method and the journal record's
    strategy. *)

val query :
  t ->
  ?k:int ->
  ?method_:Trex_topk.Strategy.method_ ->
  ?strict:bool ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  string ->
  result
(** Evaluate a NEXI query across all shards: {!scatter} in waves of
    one shard, ascending [base], each evaluated in this process by
    {!Trex.evaluate} with the wave's floor and slice, under the root
    span ["shard.query"], journaled to the coordinator's
    [<dir>/query_journal.qj]. A shard whose evaluation raises is tagged
    and its breaker records the failure;
    {!Trex_storage.Pager.Injected_crash} propagates (crash simulation).
    @raise Trex_nexi.Parser.Syntax_error *)

val query_env :
  Trex.t ->
  ?k:int ->
  ?method_:Trex_topk.Strategy.method_ ->
  ?strict:bool ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  string ->
  result
(** The plain-env plan: {!query}'s in-process dispatch over one target,
    the whole environment (tagged ["env"], base 0), under the root span
    ["query"], journaled to the environment's own journal. The floor
    stays 0, so answers, method and entries read are {!Trex.query}'s,
    and so are its record's label, digest, k and strategy.
    An evaluation exception propagates instead of tripping a breaker: a
    lone environment has nothing to degrade to.
    @raise Trex_nexi.Parser.Syntax_error *)

(** {2 The scatter core}

    One loop behind {!query}, {!query_env} and {!Supervisor.query},
    parametrised by how a wave of shards is dispatched. Every dispatch
    evaluates a shard with {!Trex.evaluate}. *)

type slice = {
  floor : float;  (** global k-th score when the wave was dispatched *)
  deadline_ms : float option;  (** what remains of the query's deadline *)
  page_budget : int option;  (** an even share of the remaining pages *)
}

type reply = {
  local_answers : Trex_topk.Answer.t;  (** shard-local docids *)
  partial : bool;  (** the shard's guard expired mid-evaluation *)
  method_used : Trex_topk.Strategy.method_ option;
      (** the built-in dispatches always name one *)
  entries_read : int;
  elapsed_s : float;
  pages_used : int;
  fallbacks : Trex_topk.Strategy.failover list;
      (** methods the evaluation abandoned *)
}

val reply_of : Trex.outcome -> reply
(** A shard's reply from its {!Trex.evaluate} outcome — the one
    conversion, used by the in-process dispatch and by the shard worker
    before the reply crosses the wire. *)

type outcome =
  | Reply of reply
  | Failed of string  (** the evaluation raised: tag + breaker failure *)
  | Lost of string  (** no reply came back: tag only *)

type target = {
  shard : shard_info;
  breaker : Trex_resilience.Breaker.t;
  unavailable : unit -> string option;  (** skip tag, asked per wave *)
}

val scatter :
  k:int ->
  wave:int ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  span:string ->
  ?span_attrs:(string * string) list ->
  journal:(unit -> Trex_obs.Journal.t) ->
  dispatch:(Trex_nexi.Ast.query -> slice -> shard_info list -> outcome list) ->
  target list ->
  string ->
  result
(** Parse the NEXI once, then visit the targets in waves of [wave]
    shards, all under one root span named [span]. Each wave's floor is
    the global k-th score so far; [deadline_ms]/[page_budget] bound the
    whole query. A shard that is unavailable, reached after the budget
    ran out, or refused by its breaker is tagged and skipped;
    [dispatch] gets the rest, which share the wave's {!slice}, and
    returns one outcome per shard in order. Replies are rebased by
    [base] and merged to k. Owns the breakers' success/probe
    bookkeeping and the [shard.*] counters
    ([shard.early_terminations] counts floor-assisted dispatches).

    When journaling is on, the scatter writes the query's one record
    to [journal ()] once the root span closes: labelled with the NEXI
    text, strategy {!method_used} (["mixed"] when there is none), the
    fallback count, and the per-shard breakdown — [shard:<name>] evaluation ms per reply,
    [lost:<name>] per shard without one. Dispatches never journal.
    @raise Invalid_argument ["k must be positive"] when [k < 1], before
    any dispatch
    @raise Trex_nexi.Parser.Syntax_error before any dispatch *)

val materialize :
  t -> ?kinds:Trex_topk.Rpl.kind list -> ?rpl_prefix:int -> string -> unit
(** {!Trex.materialize} on every attached shard — list scores use the
    corpus-wide statistics, so TA over the lists stays rank-identical
    too. *)

type health = {
  h_shard : string;
  h_base : int;
  h_docs : int;
  h_attached : bool;
  h_breaker : Trex_resilience.Breaker.state;
  h_note : string option;  (** block reason when not servable *)
}

val health : t -> health list

val split : t -> string -> shard_info * shard_info
(** [split t name] rebuilds shard [name]'s documents into two fresh
    shards of near-equal size (docid ranges preserved: first half
    keeps [base]). The two builds happen {e before} the map flip: the
    new map is committed to the coordinator environment, and only then
    is the source directory removed. The
    source shard's summary is cloned so extent classification — and
    therefore scores — are unchanged, and its pinned corpus statistics
    are copied into both new shards before the
    ["rebalance:built:<name>"] hook fires. @raise Invalid_argument when the
    shard is unknown, quarantined, or holds fewer than two
    documents. *)

val merge : t -> string -> string -> shard_info
(** [merge t a b] rebuilds two docid-adjacent shards ([b.base = a.base
    + a.docs]) into one, same protocol as {!split}. *)

val set_shard_hook : t -> (string -> unit) option -> unit
(** Test hook fired with the shard name just before each per-shard
    evaluation — raise from here to simulate shard loss mid-query, or
    sleep to simulate a straggler. *)

val set_op_hook : t -> (string -> unit) option -> unit
(** Test hook fired at each rebalance sequence point:
    ["rebalance:built:<name>"] per new shard, ["rebalance:committed"]
    once the new map is durable, ["rebalance:cleaned"] once the sources
    are removed. The map commit's own points are [Env]'s
    ({!Trex_storage.Env.set_op_hook}). The crash matrix raises
    {!Trex_storage.Pager.Injected_crash} from both. *)
