(** Relevance posting lists (RPLs) and element-relevance posting lists
    (ERPLs) — the redundant (term, sid, score) indexes of paper §2.2.

    Both store, per (term, sid), the scored elements of the extent that
    contain the term; an RPL keeps them in {e descending score} order
    (TA's sorted access), an ERPL in {e document position} order
    (Merge's sequential scan). Lists are stored as block-compressed
    segments: delta+bit-packed blocks with dictionary-coded exact
    scores, behind a {!Trex_util.Codec.Block} skip directory whose
    per-block score bounds let TA's floor end an RPL without decoding
    the rest (DESIGN.md §7). Each list spans several B+tree rows keyed
    by their first entry, and a catalog table records which
    (term, sid) lists are materialized — the unit of the
    self-management decisions. One {!Cursor} reads one list.

    A deliberate deviation from the paper, and the only layout: the
    paper keys one RPL per term as [(token, ir, SID, ...)] and lets TA
    {e skip} entries with foreign sids, while we key by
    [(token, SID, ir, ...)]. TA never reads a foreign-extent entry, the
    self-manager buys, prices and drops lists in exact (term, sid)
    units, and no evaluation merges lists across sids: TA and Merge
    both read one extent's lists at a time, since an answer element
    lies in exactly one extent (DESIGN.md §9.1). *)

type entry = { element : Trex_invindex.Types.element; score : float }

type kind = Rpl | Erpl

val kind_to_string : kind -> string

val table_name : kind -> string
(** Env table holding the lists ("rpls" / "erpls"); exposed so the
    resilience layer can map a strategy to the tables it relies on. *)

val catalog_name : kind -> string
(** Env table holding the catalog ("rpl_catalog" / "erpl_catalog"). *)

exception Stale_generation of { table : string; generation : int }
(** Raised by cursor creation when the table belongs to a manifest
    operation recovery could not resolve ([Env.table_blocked]) — its
    lists may be from an uncommitted generation. [generation] is the
    environment's highest {e committed} generation. The resilient
    evaluator treats this like corruption: fail over to a strategy that
    does not need the table. *)

type build_report = {
  pairs_built : (string * int) list;  (** (term, sid) lists created *)
  pairs_reused : int;  (** lists that already existed *)
  entries_written : int;
  bytes_estimate : int;  (** encoded bytes of the new lists *)
}

val build :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  sids:int list ->
  terms:string list ->
  kinds:kind list ->
  ?rpl_prefix:int ->
  unit ->
  build_report
(** Run ERA once over (sids, terms) and materialize the missing lists
    of the requested kinds. Idempotent per (kind, term, sid): a
    materialized list is reused. A list without a catalog row is
    built, and any rows left under its pair are cleared first.

    Every list is written by one redo-logged operation
    ([Env.run_logged_op] named ["rpl_build"]): each pair's
    {!drop_actions}, then its rows and catalog row as puts, so a crash
    leaves each list whole or absent, never half-written. The build
    checkpoints before it (a kind with no list left then starts from
    empty tables, releasing the pages of dropped lists) and after it,
    so the lists are durable in their tables on return — another
    process may open the environment next.

    [rpl_prefix] stores only the [n] highest-scoring entries of each
    RPL — the paper's observation (§4) that "only the part of the RPLs
    that is needed for computing the top-k elements must be stored".
    Truncated lists record the score of their last stored entry; TA
    remains {e correct}: past a truncated prefix the unseen scores are
    bounded by that score, and if the threshold cannot prove the top-k
    complete, TA reports it (see {!Ta.Truncated_rpl}). ERPLs are never
    truncated (Merge needs full lists). *)

val is_materialized : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> bool
(** Whether the catalog holds a row for the list. *)

val covers :
  Trex_invindex.Index.t -> kind -> sids:int list -> terms:string list -> bool
(** All (term, sid) lists needed to evaluate the query exist. *)

val list_bytes : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> int
(** Encoded size estimate recorded in the catalog; 0 when absent. *)

val list_entries : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> int

val list_bound : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> float
(** Truncation bound of a prefix-materialized RPL: entries that were
    dropped all score at most this. [0.] for complete lists or absent
    catalogs. *)

val list_truncated : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> bool
(** Whether the stored list is a truncated prefix. Carried explicitly
    in the catalog row — a bound of 0.0 does not mean complete. *)

val drop_actions :
  kind -> term:string -> sid:int -> Trex_storage.Manifest.action list
(** The drop of one list as physical manifest actions: its catalog row,
    then every row under its pair. Every drop below is one redo-logged
    operation of these ([Env.run_logged_op] named ["rpl_drop"]), durable
    once it returns, so a crash leaves each list whole or gone; other
    operations (e.g. [add_document]) make them leading steps of their
    own. *)

val drop_lists : Trex_invindex.Index.t -> (kind * string * int) list -> unit
(** Remove the (kind, term, sid) lists and their catalog rows in one
    operation. *)

val drop : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> unit
(** {!drop_lists} of one list. *)

val drop_all : Trex_invindex.Index.t -> kind -> unit
(** Remove every materialized list of the kind in one operation (e.g.
    to reclaim the space used by a measurement pass before applying an
    advisor plan). *)

val catalog : Trex_invindex.Index.t -> kind -> (string * int * int * int) list
(** All materialized lists as (term, sid, entries, bytes). *)

val total_bytes : Trex_invindex.Index.t -> kind -> int

(** A reader of exactly one (term, sid) list, in the list's order:
    descending score for {!Rpl}, document position for {!Erpl}. Merge
    reads every (term, sid) ERPL through one, TA every (term, sid)
    RPL. *)
module Cursor : sig
  type t

  exception Missing_list of { kind : kind; term : string; sid : int }

  val create : Trex_invindex.Index.t -> kind -> term:string -> sid:int -> t
  (** Decodes no block until the first {!peek} or {!next}.
      @raise Missing_list if the list has no catalog row.
      @raise Stale_generation when the kind's tables are blocked
        pending manifest resolution. *)

  val set_bound : t -> float -> unit
  (** Install a score floor the caller has already achieved (e.g. the
      scatter-gather global k-th score) on an RPL. Entries at or below
      it cannot matter, so the list ends at its first block whose
      quantized max is within the floor, undecoded — recorded as a
      dynamic truncation ({!truncation_bound}/{!truncated}), keeping
      TA's certification obligation explicit. Entries already decoded
      stay, so the stream stays a prefix of the unbounded one. [0.0]
      disables the stop. *)

  val peek : t -> entry option
  (** The next entry without consuming it (not counted by
      {!entries_read}); decodes its block if needed. *)

  val next : t -> entry option
  (** Blocks are decoded one at a time, as the reader reaches them.
      @raise Trex_util.Codec.Reader.Malformed on a stored value that is
        not a segment. *)

  val entries_read : t -> int
  val blocks_decoded : t -> int

  val blocks_skipped : t -> int
  (** Blocks the floor of {!set_bound} left undecoded. *)

  val truncation_bound : t -> float
  (** Upper bound on the score of any entry the materialized prefix
      dropped {e or} the floor left undecoded; [0.] when the list is
      complete and read to its end. *)

  val truncated : t -> bool
  (** Whether the list is incomplete — stored truncated flag or a
      floor stop. Unlike [truncation_bound > 0.] this is exact even
      when the bound is 0.0. *)
end
