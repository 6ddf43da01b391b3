(** TReX — an XML retrieval engine with self-managing top-k (summary,
    keyword) indexes.

    This is the system façade: build or attach an engine over a storage
    environment, then parse, translate and evaluate NEXI queries with
    any of the retrieval strategies (ERA / TA / ITA / Merge), manage the
    redundant RPL/ERPL indexes by hand or through the workload-driven
    advisor, and inspect sizes and statistics.

    {[
      let coll = Trex_corpus.Gen.ieee ~doc_count:100 () in
      let env = Trex_storage.Env.in_memory () in
      let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
      let outcome = Trex.query engine ~k:10 "//article//sec[about(., information retrieval)]" in
      List.iter
        (fun (h : Trex.hit) -> print_endline h.snippet)
        (Trex.hits engine outcome.strategy.answers)
    ]} *)

module Env = Trex_storage.Env
module Summary = Trex_summary.Summary
module Alias = Trex_summary.Alias
module Pattern = Trex_summary.Pattern
module Index = Trex_invindex.Index
module Types = Trex_invindex.Types
module Scorer = Trex_scoring.Scorer
module Ast = Trex_nexi.Ast
module Nexi_parser = Trex_nexi.Parser
module Translate = Trex_nexi.Translate
module Answer = Trex_topk.Answer
module Era = Trex_topk.Era
module Ta = Trex_topk.Ta
module Merge = Trex_topk.Merge
module Rpl = Trex_topk.Rpl
module Strategy = Trex_topk.Strategy
module Workload = Trex_selfman.Workload
module Cost = Trex_selfman.Cost
module Advisor = Trex_selfman.Advisor
module Autopilot = Trex_selfman.Autopilot

module Obs = Trex_obs
(** Observability: process-wide metrics registry ({!Trex_obs.Metrics})
    and query-span tracing ({!Trex_obs.Span}). [query] /
    [query_structured] / [materialize] run under spans when tracing is
    enabled with [Obs.Span.set_enabled true]. *)

module Guard = Trex_resilience.Guard
module Breaker = Trex_resilience.Breaker
(** Resilience: query deadlines/page budgets ({!Guard}) and the
    per-table circuit breakers ({!Breaker}, managed by {!Env}) behind
    {!query}'s degradation and fallback behavior. The contract is
    DESIGN.md §6: never wrong, possibly partial, always tagged. *)

type t

val build :
  env:Env.t ->
  ?summary_criterion:Summary.criterion ->
  ?alias:Alias.t ->
  ?analyzer:Trex_text.Analyzer.config ->
  ?scoring:Scorer.config ->
  (string * string) Seq.t ->
  t
(** Index a collection of (name, xml) documents. Defaults: alias
    incoming summary, default analyzer, BM25 scoring. Postings, and
    every RPL/ERPL materialized later, are stored as block-compressed
    segments (DESIGN.md §7). *)

val attach : env:Env.t -> unit -> t
(** Re-open a previously built engine, with the scorer stored at
    {!build} and the scoring statistics stored in the environment, so a
    coordinator's shard attaches like a plain environment. Damage is
    found on read, or up front by {!Env.verify} ([trex verify]).
    @raise Trex_storage.Manifest.Unsupported_format on an environment
    written in another format version (see {!Index.attach}). *)

val index : t -> Index.t
val summary : t -> Summary.t
val scoring : t -> Scorer.config

(** {1 Query evaluation} *)

val parse : t -> string -> Ast.query
(** @raise Trex_nexi.Parser.Syntax_error *)

val translate : t -> Ast.query -> Translate.t

type outcome = {
  translation : Translate.t;
  strategy : Strategy.outcome;
  k : int;
  degraded : bool;
      (** a guard expired mid-run: [strategy.answers] is a sound but
          possibly-partial best-effort prefix *)
  fallbacks : Strategy.failover list;
      (** methods abandoned after storage failures on this query *)
  pages_used : int;  (** physical page reads charged to the guard (0 without one) *)
}

val evaluate :
  t ->
  k:int ->
  ?method_:Strategy.method_ ->
  strict:bool ->
  floor:float ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  Ast.query ->
  outcome
(** The one evaluation of a parsed query on this environment, behind
    {!query}, both shard dispatches and the shard worker: translate,
    evaluate the union of the (sids, terms) — the paper's retrieval
    unit; under [strict] the target extent's sids alone, with the
    same terms — keep the entries scoring above [floor] (a scatter's
    global k-th score; [<= 0] filters nothing), and truncate to [k].
    The method defaults to {!Strategy.choose}'s pick; a translation
    with no sid or no term is answered by ERA, which has nothing to
    read. Never journals: the entry point that posed the query writes
    its record.

    Resilience: [deadline_ms]/[page_budget] arm a {!Guard}; on expiry
    the run stops where it is and returns best-effort answers with
    [degraded = true] instead of raising. Storage failures
    ([Pager.Corruption]) inside TA/ITA/Merge trip the affected tables'
    circuit breakers and the query transparently falls back to the next
    surviving method (recorded in [fallbacks]); only failures of the
    base tables — which have no redundant substitute — propagate. *)

val query :
  t ->
  ?k:int ->
  ?method_:Strategy.method_ ->
  ?strict:bool ->
  ?deadline_ms:float ->
  ?page_budget:int ->
  string ->
  outcome
(** Parse a NEXI query and {!evaluate} it without a floor, under the
    root span ["query"]. [k] defaults to 10, [strict] (the structural
    path must hold exactly) to the vague interpretation. This is a
    query's entry point: with {!Trex_obs.Journal.set_enabled} on it
    writes the one journal record of the posed query to the
    environment's journal, labelled with the NEXI text ({!evaluate},
    the strategies below it, {!advise} and the autopilot never
    journal). @raise Trex_nexi.Parser.Syntax_error on bad syntax. *)

val query_structured :
  t -> ?k:int -> ?deadline_ms:float -> ?page_budget:int -> string -> outcome
(** Full NEXI semantics: each [about()] path is retrieved separately,
    support paths contribute the score of the enclosing ancestor
    element, [-terms] exclude, and answers come from the target extent.
    Evaluated with ERA (no materialized indexes needed). The guard
    flags apply per [about()] scan; exclusion scans run unguarded (an
    incomplete exclusion list would be wrong, not partial). Journals
    like {!query}, under the strategy name ["structured"]. *)

(** {1 Index management} *)

val add_document : t -> name:string -> xml:string -> int
(** Index one more document and {e self-manage} the redundant indexes:
    the document moves the statistics every list was scored with, so
    every materialized RPL/ERPL list is dropped and stale lists can
    never serve queries; they rebuild on the next {!materialize}.
    Returns the docid.
    @raise Trex_xml.Sax.Malformed on invalid XML.
    @raise Invalid_argument, before the manifest sees the document, on
    a coordinator's shard (its statistics and docids are the
    coordinator's). *)

val materialize :
  t -> ?kinds:Rpl.kind list -> ?rpl_prefix:int -> string -> Rpl.build_report
(** Build the RPL and/or ERPL lists (default both) needed by the given
    NEXI query, enabling TA and Merge on it. [rpl_prefix] stores only
    each RPL's best-scoring prefix (paper §4's space optimization);
    see [Rpl.build]. *)

val advise :
  t ->
  workload:Workload.t ->
  budget:int ->
  ?optimal:bool ->
  ?runs:int ->
  unit ->
  Advisor.plan * Cost.profile list
(** Measure every workload query against this environment (see
    {!Cost.measure}), then plan index selection under [budget] bytes
    with the greedy 2-approximation (or branch-and-bound when
    [optimal]). Planning only: the lists measurement built are dropped
    again, so the environment's lists are as {!advise} found them. See
    {!Advisor.apply} to apply the plan. *)

val vacuum : t -> unit
(** Compact the redundant-index tables (RPLs, ERPLs and their
    catalogs), reclaiming the space of dropped lists so
    {!table_sizes} reflects live data — B+trees never shrink in
    place. Safe to call any time no cursors are open. *)

(** {1 Inspection} *)

type table_sizes = {
  elements_bytes : int;
  postings_bytes : int;
  rpls_bytes : int;
  erpls_bytes : int;
}

val table_sizes : t -> table_sizes

type hit = {
  rank : int;
  score : float;
  element : Types.element;
  doc_name : string;
  xpath : string;  (** the extent's label path *)
  snippet : string;
}

val hits : t -> ?limit:int -> Answer.t -> hit list
(** Decorate raw answers for display (doc names from the Documents
    table, extent paths from the summary). *)
