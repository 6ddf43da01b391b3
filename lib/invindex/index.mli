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
  (string * string) Seq.t ->
  t
(** [build ~env ~summary docs] parses each [(name, xml)] document,
    assigns docids in sequence order, grows the summary, and bulk-loads
    the tables into [env]. Posting lists are written as
    {!Trex_util.Codec.Block} segments, and the [meta] table records
    [postings_layout = blocked].
    @raise Trex_xml.Sax.Malformed on bad input. *)

exception Unsupported_postings of string option
(** Raised by {!attach} when the [meta] table's [postings_layout] is
    missing or is not [blocked]: the environment holds postings in a
    format this build cannot read. Carries the value found. *)

val attach : Trex_storage.Env.t -> t
(** Re-open an index previously built in this environment (metadata,
    summary and statistics are read back from the [meta] table).
    @raise Failure if the environment holds no index.
    @raise Unsupported_postings if its postings are not segments. *)

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
    [Trex.add_document], which wires this to the RPL catalogs).
    Existing lists of untouched terms remain consistent at the content
    level; relevance scores keep using the statistics of the index
    they were computed against until their lists are rebuilt.
    @raise Trex_xml.Sax.Malformed on bad input. *)

val env : t -> Trex_storage.Env.t
val summary : t -> Trex_summary.Summary.t
val analyzer : t -> Trex_text.Analyzer.config

val stats : t -> stats

val term_stats : t -> string -> Tables.Terms.row option
(** Lookup by {e normalized} term. *)

(** {1 Scoring statistics}

    Relevance scoring must use corpus-wide statistics even when this
    index holds only one shard of a partitioned corpus. A coordinator
    installs overrides at open time; all scoring flows through
    {!scoring_corpus} and {!term_df}, so overridden statistics cover
    every strategy and RPL build uniformly. The overrides are in-memory
    only — they never touch {!stats} (whose [doc_count] also allocates
    the next local docid in {!add_document}). *)

type scoring_overrides = {
  corpus_doc_count : int;
  corpus_avg_element_length : float;
  global_df : string -> int option;
      (** corpus-wide document frequency of a normalized term; [None]
          falls back to this index's own Terms row *)
}

val set_scoring_overrides : t -> scoring_overrides -> unit
val clear_scoring_overrides : t -> unit

val has_scoring_overrides : t -> bool
(** Whether scoring is pinned to installed overrides rather than this
    index's own statistics. *)

val scoring_corpus : t -> int * float
(** (doc_count, avg_element_length) to score against: the overrides
    when installed, this index's {!stats} otherwise. *)

val term_df : t -> string -> int
(** Document frequency to score with (overridden or local; 0 for an
    unknown term). *)

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
