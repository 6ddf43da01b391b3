(** B+tree over a {!Pager}.

    Keys and values are strings; keys compare bytewise, so composite
    keys must be produced with the order-preserving {!Trex_util.Codec}
    encoders. Leaves are chained for cheap ordered scans — exactly the
    sequential-access-by-primary-key contract the paper relies on for
    its BerkeleyDB tables.

    A single entry (key + value) must fit in roughly a quarter page;
    bigger payloads must be chunked by the caller (the paper stores long
    posting lists "divided... in several tuples", and the index layers
    here do the same). *)

type t

val create : Pager.t -> t
(** Start a fresh tree; its root id is persisted in the pager header. *)

val attach : Pager.t -> t
(** Attach to the tree whose root the pager header records.
    @raise Pager.Corruption if the pager has no committed root (a crash
    destroyed the creating commit). *)

val pager : t -> Pager.t

val refresh : t -> unit
(** Re-read the root from the pager header. Needed after {!bulk_load}
    rebuilt the tree inside a pager this handle already points at. *)

val insert : t -> key:string -> value:string -> unit
(** Insert or replace. A leaf that overflows splits by bytes, not entry
    count, so both halves fit whatever the mix of entry sizes; when the
    new entry lands past that split point and both halves still fit,
    the leaf splits just before it instead, so ascending runs leave full
    leaves behind, at the end of the table and in its middle alike.
    @raise Invalid_argument if the entry is too large for a node. *)

val insert_batch : t -> (string * string) list -> unit
(** Insert or replace every pair, the last pair of a key winning: the
    same table as {!insert} over the list in order. The pairs are sorted
    and each leaf's share is merged into it with one descent and one
    write; a leaf whose merged share overflows takes that share key by
    key through {!insert}, so splits follow its one rule.
    @raise Invalid_argument, before any write, if an entry is too large
    for a node. *)

val find : t -> string -> string option

val remove : t -> string -> bool
(** [true] iff the key was present. Leaves may become under-full; the
    tree never shrinks (fine for build-once index workloads). *)

val length : t -> int
(** Number of entries (O(n) on first call after {!attach}). *)

val bulk_load : Pager.t -> (string * string) Seq.t -> t
(** Build a tree from a strictly key-ascending sequence, packing leaves
    to a high fill factor. Much faster than repeated {!insert}. Ends
    with a durable commit ([Pager.flush ~sync:true]): pages are synced
    before the header that publishes the new root.
    @raise Invalid_argument if keys are not strictly ascending. *)

type verify_report = {
  pages : int;  (** distinct pages reachable from the root *)
  entries : int;
  depth : int;
  fill : float;  (** mean leaf encoding over the node budget, in [0, 1] *)
  problems : string list;  (** empty iff the tree is structurally sound *)
}

val verify : t -> verify_report
(** Full structural check: node decodability, strict key order inside
    nodes, separator bounds along every root-to-leaf path, child links
    in range, no page reached twice, and the leaf sibling chain linking
    the leaves in exactly DFS order. Nodes are decoded from the page
    bytes, not taken from the cache,
    so the encoding itself is checked: each node must fit the node
    budget and take exactly the bytes its size computation predicts.
    Read-only; decode failures are reported as problems rather than
    raised. *)

(** Ordered iteration. A cursor is positioned before an entry; [next]
    yields it and advances. Nodes are immutable, so a cursor holds the
    current leaf as a snapshot: a write into that leaf after
    positioning is not seen until the cursor moves to the next leaf
    (no crash, possibly stale data) — the retrieval algorithms never
    write during reads. *)
module Cursor : sig
  type cursor

  val seek_first : t -> cursor
  val seek : t -> string -> cursor
  (** Positioned at the first entry with key [>=] the argument. *)

  val seek_prefix : t -> prefix:string -> string -> cursor
  (** Like {!seek}, but {!next} ends at the first key that does not
      start with [prefix]; the sought key must start with it. *)

  val next : cursor -> (string * string) option
end

val iter : t -> (string -> string -> unit) -> unit

val iter_prefix : t -> prefix:string -> (string -> string -> unit) -> unit
(** Visit all entries whose key starts with [prefix], in key order. *)

val fold_range :
  t -> low:string -> high:string option -> init:'a -> f:('a -> string -> string -> 'a) -> 'a
(** Fold entries with [low <= key] and [key < high] (no upper bound when
    [high] is [None]). *)

val entry_budget : Pager.t -> int
(** Maximum encoded entry size accepted by {!insert} for this pager. *)
