(** The corpus index: summary + [Elements] + [PostingLists] (+ document
    and term statistics), built once over a document collection and then
    read by every retrieval strategy.

    Building follows the paper's §2.2: every element is recorded under
    its summary sid keyed by (SID, docid, endpos); every term occurrence
    is recorded in a position-ordered posting list, stored as
    block-compressed segments (DESIGN.md §7). *)

type stats = {
  doc_count : int;
  total_bytes : int;  (** XML source bytes *)
  element_count : int;
  avg_element_length : float;  (** mean element source length in bytes *)
  term_count : int;  (** distinct terms *)
  posting_count : int;  (** total term occurrences *)
}

type t

val build :
  env:Trex_storage.Env.t ->
  summary:Trex_summary.Summary.t ->
  ?analyzer:Trex_text.Analyzer.config ->
  ?scoring:Trex_scoring.Scorer.config ->
  (string * string) Seq.t ->
  t
(** [build ~env ~summary docs] parses each [(name, xml)] document,
    assigns docids in sequence order, grows the summary, and bulk-loads
    the tables into [env]. Posting lists are written as
    {!Trex_util.Codec.Block} segments, and the [meta] table records the
    environment's {!format} and the scorer every list of this index is
    scored with ([scoring], default BM25).
    @raise Trex_xml.Sax.Malformed on bad input. *)

val format : string
(** The on-disk format this build writes and reads, stored under the
    [meta] key [format]. One value at a time: a format change bumps it,
    and environments of every earlier value are refused, not read. *)

exception No_index of string
(** The environment (named by its directory, or ["memory"]) holds no
    index: it has no [meta] table. Its printer reads "no index at
    <dir>". *)

val require : Trex_storage.Env.t -> unit
(** @raise No_index, having created nothing, unless the environment has
    a [meta] table. Run by {!attach}, and by the commands that inspect
    an environment without attaching it ([verify], [health]). *)

val check_format : Trex_storage.Env.t -> unit
(** @raise Trex_storage.Manifest.Unsupported_format unless the [meta]
    table's [format] key is {!format} (a missing key is [found = None]).
    Reads nothing else; [verify] runs it on an env with a [meta]
    table. *)

val attach : Trex_storage.Env.t -> t
(** Re-open an index previously built in this environment (metadata,
    summary, scorer and statistics — pinned corpus statistics included
    — are read back from the [meta] table), after {!require} and
    {!check_format}.
    @raise No_index, before any table file is created, if the
    environment holds no index.
    @raise Trex_storage.Manifest.Unsupported_format, before anything is
    decoded, if it was written in another format. *)

val add_document :
  ?invalidation:(string list -> Trex_storage.Manifest.action list) ->
  t ->
  name:string ->
  xml:string ->
  int * string list
(** Incrementally index one more document: grows the summary, inserts
    its elements and postings, updates per-term and corpus statistics
    and persists the refreshed metadata. Returns the new docid and the
    document's distinct normalized terms.

    The whole ingest is one redo-logged manifest operation
    ([Env.run_logged_op]): either every table reflects the document or
    none does, across crashes. [invalidation], given the document's
    distinct normalized terms, returns drop actions for redundant
    lists (RPLs/ERPLs) those terms make stale; they execute {e first}
    and atomically with the base-table writes, so a crash can never
    leave a half-indexed document with stale lists still servable (see
    [Trex.add_document], which drops every materialized list).
    @raise Trex_xml.Sax.Malformed on bad input.
    @raise Invalid_argument, before anything is written, on an index
    with pinned corpus statistics (a coordinator's shard). *)

val env : t -> Trex_storage.Env.t
val summary : t -> Trex_summary.Summary.t
val analyzer : t -> Trex_text.Analyzer.config

val scoring : t -> Trex_scoring.Scorer.config
(** The scorer stored at {!build}. *)

val stats : t -> stats

val term_stats : t -> string -> Tables.Terms.row option
(** Lookup by {e normalized} term. *)

(** {1 Scoring statistics}

    All scoring flows through {!scoring_stats} and {!term_df}, so
    every strategy and RPL build scores with the same statistics. They
    live in the environment: a plain index scores with its own, and a
    shard of a partitioned corpus with the corpus-wide ones its
    coordinator pinned at build time (see {!pin_corpus}), so it
    attaches and scores like any other index. *)

val scoring_stats : t -> stats
(** The statistics to score against (their [doc_count] and
    [avg_element_length]): the pinned corpus statistics when there are
    some, this index's {!stats} otherwise. *)

val term_df : t -> string -> int
(** Document frequency to score with: the term's Terms row (0 for an
    unknown term). *)

val pin_corpus : t -> stats -> df:(string -> int) -> unit
(** [pin_corpus t corpus ~df] stores corpus-wide scoring statistics in
    this index's environment: [corpus] in the [meta] table, in the
    encoding of this index's own {!stats} (which stay local), and
    [df token] as the df of every Terms row (df is read only by
    scoring). *)

exception Unpinned_statistics

val require_pinned : t -> unit
(** A shard's attach check. @raise Unpinned_statistics when no corpus
    statistics were pinned. This guards a role, not a format version: a
    plain environment of the current format placed in a shard slot
    would score with its own statistics, so it is refused. *)

val iter_terms : t -> (string -> df:int -> cf:int -> unit) -> unit
(** Enumerate the Terms table in token order (for a coordinator
    summing per-shard document frequencies). *)

val normalize_term : t -> string -> string option
(** Push a raw query token through the index's analyzer. *)

val document : t -> int -> Tables.Documents.row option
val documents : t -> Tables.Documents.row list

val source : t -> int -> string option
(** The stored XML source of a document (for snippets and re-display);
    kept in a [sources] table at build time. *)

val element_text : t -> Types.element -> string option
(** Raw source bytes of the element's span, tags included; [None] when
    the document is unknown or the span is out of range. *)

val elements_bytes : t -> int
val postings_bytes : t -> int

(** Iterator over the posting list of one term, in position order —
    the paper's [I_t]. *)
module Posting_iter : sig
  type iter

  val create : t -> string -> iter
  (** The term must be normalized. An unknown term yields an iterator
      that is immediately exhausted. *)

  val next_position : iter -> Types.pos
  (** Returns {!Types.m_pos} once exhausted (and forever after). *)
end

(** Iterator over the elements of one extent, in (docid, endpos) order —
    the paper's [I_s]. *)
module Element_iter : sig
  type iter

  val create : t -> int -> iter

  val first_element : iter -> Types.element
  (** {!Types.dummy_element} when the extent is empty. *)

  val next_element_after : iter -> Types.pos -> Types.element
  (** First extent element whose (docid, endpos) exceeds the position;
      {!Types.dummy_element} when none remains. Implemented as a B+tree
      seek, as in the paper. *)
end

val extent_elements : t -> int -> Types.element list
(** All elements of an extent, in position order (for tests/examples). *)
