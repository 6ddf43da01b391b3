(** Fault-tolerant sharded scatter-gather top-k.

    A coordinator partitions a corpus by docid into N independent
    storage environments ("shards"), each a complete TReX index over
    its slice, and serves queries by scattering the evaluation across
    shards and gathering a global ranking. Three properties drive the
    design:

    - {b Rank identity.} Each shard scores with corpus-wide statistics
      (installed via [Index.set_scoring_overrides]), and the gather
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
    - {b Crash-atomic rebalance.} {!split} and {!merge} rebuild
      document slices into fresh shard directories under a manifest
      operation (Begin / Step / Commit / End with the build-op
      discipline): a crash at any point either rolls the shard map
      forward or rolls the half-built shards back at the next
      {!open_} — a document is always in exactly one servable shard,
      never zero or two. An operation recovery cannot resolve (a
      committed map whose new shard directories were destroyed)
      quarantines the affected shards instead of guessing. *)

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
  ?scoring:Trex_scoring.Scorer.config ->
  (string * string) list ->
  t
(** [create ~dir ~shards docs] partitions [docs] (in order — position
    is the global docid) into [shards] contiguous slices of near-equal
    document count, builds one index per slice under [dir/shard-NNN/],
    snapshots the full-corpus scoring statistics
    ([CORPUS_STATS.json] — loaded at every {!open_} so a quarantined
    or lost shard never changes the scores the surviving shards
    produce), writes the shard map ([SHARDMAP.json], installed
    atomically) and opens the coordinator. @raise Invalid_argument
    when [shards] is not positive or exceeds the document count. *)

val open_ : ?scoring:Trex_scoring.Scorer.config -> string -> t
(** Open an existing coordinator directory. Pending rebalance
    operations in the coordinator manifest ([SHARDS.mf]) are resolved
    first — committed ones roll forward (shard map reinstalled, source
    directories removed), uncommitted ones roll back (half-built
    directories removed); an unresolvable committed operation leaves
    its shards quarantined (see {!unresolved} and {!health}). *)

val close : t -> unit
val abort : t -> unit
(** Test hook: abandon every shard environment and the coordinator
    manifest as a crashed process would (no flushes, no closing
    appends). *)

val dir : t -> string

val shards : t -> shard_info list
(** The full shard map, ascending [base] — including shards that
    failed to attach (see {!health}). *)

val blocked : t -> (string * string) list
(** Shards excluded from serving, with reasons: attach failures and
    shards of unresolvable rebalance operations. Queries tag these in
    {!result.degraded_shards}. *)

val unresolved : t -> string list
(** Descriptions of pending rebalance operations recovery could not
    resolve (the CLI exits 2 when non-empty). *)

val breaker : t -> string -> Trex_resilience.Breaker.t
(** The named shard's circuit breaker (created on demand; breakers
    survive rebalance by name). *)

val load_map : string -> shard_info list
(** The shard map of a coordinator directory, ascending [base], without
    opening the coordinator — how a {!Supervisor} learns the layout
    before spawning workers (no recovery is run; open the coordinator
    first if rebalance operations may be pending). *)

val attach_shard :
  dir:string -> string -> Trex_storage.Env.t * Trex_invindex.Index.t
(** [attach_shard ~dir name] opens the single shard [dir/name] with the
    coordinator's corpus-wide scoring overrides installed — the
    worker-process side of {!Supervisor}. The caller owns the returned
    environment. *)

val sweep_stale_worker_artifacts : string -> shard_info list -> int
(** Remove orphaned worker droppings ([worker.pid] whose process is
    gone, any [worker.sock]) from the given shard directories,
    returning how many were removed; each removal bumps
    ["supervisor.stale_sweeps"]. {!open_} runs this sweep itself. *)

val index_of : t -> string -> Trex_invindex.Index.t option
(** The attached shard's index, corpus-wide scoring overrides
    installed — for tests and tools that evaluate one shard directly;
    [None] when the shard is unknown or quarantined. *)

type shard_report = {
  r_shard : string;
  r_method : Trex_topk.Strategy.method_ option;
      (** [None] when the shard was skipped or contributed no
          evaluation (no matching structure) *)
  r_entries_read : int;
  r_elapsed_seconds : float;
  r_kept : int;
      (** answers kept after the floor/strict filter and the shard's
          top-k *)
  r_floor : float;  (** global k-th score when this shard ran *)
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
}

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
    one shard, ascending [base], each evaluated in this process. A
    shard whose evaluation raises is tagged and its breaker records the
    failure; {!Trex_storage.Pager.Injected_crash} propagates (crash
    simulation). @raise Trex_nexi.Parser.Syntax_error *)

(** {2 The scatter core}

    One loop behind {!query} and {!Supervisor.query}, parametrised by
    how a wave of shards is dispatched. *)

type slice = {
  floor : float;  (** global k-th score when the wave was dispatched *)
  deadline_ms : float option;  (** what remains of the query's deadline *)
  page_budget : int option;  (** an even share of the remaining pages *)
}

type reply = {
  local_answers : Trex_topk.Answer.t;  (** shard-local docids *)
  partial : bool;  (** the shard's guard expired mid-evaluation *)
  method_used : Trex_topk.Strategy.method_ option;
      (** [None]: no matching structure in this shard *)
  entries_read : int;
  elapsed_s : float;
  pages_used : int;
}

type outcome =
  | Reply of reply
  | Failed of string  (** the evaluation raised: tag + breaker failure *)
  | Lost of string  (** no reply came back: tag only *)

type target = {
  shard : shard_info;
  breaker : Trex_resilience.Breaker.t;
  unavailable : unit -> string option;  (** skip tag, asked per wave *)
}

val evaluate_shard :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  k:int ->
  strict:bool ->
  ?method_:Trex_topk.Strategy.method_ ->
  slice ->
  Trex_nexi.Ast.query ->
  Trex_nexi.Translate.t * reply
(** One shard's contribution, in process or in a worker: translate
    (no matching structure: an empty reply), evaluate under a guard
    built from the slice, keep the entries above the floor (in the
    target extent when [strict]) and truncate to [k]. *)

val scatter :
  k:int ->
  wave:int ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  dispatch:(Trex_nexi.Ast.query -> slice -> shard_info list -> outcome list) ->
  target list ->
  string ->
  result
(** Parse the NEXI once, then visit the targets in waves of [wave]
    shards. Each wave's floor is the global k-th score so far;
    [deadline_ms]/[page_budget] bound the whole query. A shard that is
    unavailable, reached after the budget ran out, or refused by its
    breaker is tagged and skipped; [dispatch] gets the rest, which
    share the wave's {!slice}, and returns one outcome per shard in
    order. Replies are rebased by [base] and merged to k. Owns the
    breakers' success/probe bookkeeping and the [shard.*] counters
    ([shard.early_terminations] counts floor-assisted dispatches).
    @raise Trex_nexi.Parser.Syntax_error before any dispatch *)

val materialize :
  t -> ?kinds:Trex_topk.Rpl.kind list -> ?rpl_prefix:int -> string -> unit
(** Materialize RPLs/ERPLs for the query's (sids, terms) on every
    shard — list scores use the corpus-wide statistics, so TA over the
    lists stays rank-identical too. *)

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
    new map is committed through the coordinator manifest, installed
    atomically, and only then is the source directory removed. The
    source shard's summary is cloned so extent classification — and
    therefore scores — are unchanged. @raise Invalid_argument when the
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
    ["rebalance:begin_logged"], ["rebalance:built:<name>"],
    ["rebalance:committed"], ["rebalance:map_installed"],
    ["rebalance:cleaned"]. The crash matrix raises
    {!Trex_storage.Pager.Injected_crash} from here. *)
