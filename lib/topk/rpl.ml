module Codec = Trex_util.Codec
module Env = Trex_storage.Env
module Bptree = Trex_storage.Bptree
module Manifest = Trex_storage.Manifest
module Types = Trex_invindex.Types
module Index = Trex_invindex.Index

type entry = { element : Types.element; score : float }
type kind = Rpl | Erpl

let kind_to_string = function Rpl -> "RPL" | Erpl -> "ERPL"
let table_name = function Rpl -> "rpls" | Erpl -> "erpls"
let catalog_name = function Rpl -> "rpl_catalog" | Erpl -> "erpl_catalog"

exception Stale_generation of { table : string; generation : int }

(* Generation check (paper's "never serve an uncommitted index"): a
   table still belonging to an unresolved manifest operation may hold
   lists from an uncommitted generation and must not back a cursor. *)
let check_generation index name =
  let env = Index.env index in
  if Env.table_blocked env name then
    raise (Stale_generation { table = name; generation = Env.generation env })

(* ---- keys ---- *)

let pair_prefix ~term ~sid =
  Codec.concat_keys [ Codec.key_of_string term; Codec.key_of_int sid ]

(* Chunk keys embed the first entry so chunks sort correctly within the
   (term, sid) prefix: by descending score for RPLs, by position for
   ERPLs. *)
let chunk_key kind ~term ~sid (first : entry) =
  let e = first.element in
  let tail =
    match kind with
    | Rpl ->
        [ Codec.key_of_float (-.first.score); Codec.key_of_int e.docid; Codec.key_of_int e.endpos ]
    | Erpl -> [ Codec.key_of_int e.docid; Codec.key_of_int e.endpos ]
  in
  Codec.concat_keys (pair_prefix ~term ~sid :: tail)

(* ---- block-compressed segments ----

   Several delta-encoded blocks share one table value behind a
   [Codec.Block] skip directory. Exact scores are dictionary-coded per
   segment (each distinct float stored once, entries carry indices), so
   returned scores are bit-identical to the scores ERA computed — the
   skip directory's per-block score maxima are quantized {e up}
   separately and used only as rank-safe pruning bounds. A block header
   holds its entry count, that score bound (TA's floor ends an RPL at
   the first block it rules out, undecoded) and the docid the deltas
   start from. Every entry of a segment shares the list's sid, so no
   entry stores it. *)

let block_entries = 64
let segment_budget = 1536

(* Incremental per-segment score dictionary. *)
module Dict = struct
  type t = {
    tbl : (float, int) Hashtbl.t;
    mutable rev : float list;
    mutable n : int;
  }

  let create () = { tbl = Hashtbl.create 64; rev = []; n = 0 }

  let index d s =
    match Hashtbl.find_opt d.tbl s with
    | Some i -> i
    | None ->
        let i = d.n in
        Hashtbl.add d.tbl s i;
        d.rev <- s :: d.rev;
        d.n <- d.n + 1;
        i

  let news d entries =
    (* Distinct scores of [entries] not yet in the dictionary. *)
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun { score; _ } ->
        if Hashtbl.mem d.tbl score || Hashtbl.mem seen score then None
        else begin
          Hashtbl.add seen score ();
          Some score
        end)
      entries

  let encode d =
    let b = Codec.Buf.create ~capacity:((8 * d.n) + 4) () in
    Codec.Buf.add_uvarint b d.n;
    List.iter (fun s -> Codec.Buf.add_float b s) (List.rev d.rev);
    Codec.Buf.contents b
end

let decode_dict extra =
  let r = Codec.Reader.of_string extra in
  let n = Codec.Reader.uvarint r in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- Codec.Reader.float r
  done;
  a

type block_info = {
  blk_count : int;
  blk_qmax : int; (* quantized-up max score: sound pruning bound *)
  blk_min_docid : int; (* base of the docid deltas *)
}

let encode_block dict entries =
  match entries with
  | [] -> invalid_arg "Rpl.encode_block: empty block"
  | _ ->
      let qmax = ref 0 and min_doc = ref max_int in
      List.iter
        (fun { element = e; score } ->
          qmax := max !qmax (Codec.Block.quantize_up score);
          min_doc := min !min_doc e.Types.docid)
        entries;
      let h = Codec.Buf.create ~capacity:16 () in
      Codec.Buf.add_uvarint h (List.length entries);
      Codec.Buf.add_uvarint h !qmax;
      Codec.Buf.add_uvarint h !min_doc;
      (* Payload: parallel bit-packed streams (score index,
         zig-zag docid delta, zig-zag endpos delta, length), each
         preceded by its uvarint width. Frame-of-reference per stream:
         a block's score indexes or deltas rarely need more than a few
         bits, where per-entry varints spend at least eight. Widths
         live in the payload, not the skip-entry header, so skipped
         blocks never read them. *)
      let n = List.length entries in
      let idxs = Array.make n 0
      and zdocs = Array.make n 0
      and zends = Array.make n 0
      and lens = Array.make n 0 in
      let zz v = (v lsl 1) lxor (v asr 62) in
      let prev_doc = ref !min_doc and prev_end = ref 0 in
      List.iteri
        (fun i { element = e; score } ->
          idxs.(i) <- Dict.index dict score;
          zdocs.(i) <- zz (e.docid - !prev_doc);
          zends.(i) <- zz (e.endpos - !prev_end);
          lens.(i) <- e.length;
          prev_doc := e.docid;
          prev_end := e.endpos)
        entries;
      let b = Codec.Buf.create ~capacity:256 () in
      let put a =
        let w = Codec.Bitpack.width a in
        Codec.Buf.add_uvarint b w;
        Codec.Bitpack.pack b ~width:w a
      in
      put idxs;
      put zdocs;
      put zends;
      put lens;
      (Codec.Buf.contents h, Codec.Buf.contents b)

let decode_block_header r =
  let blk_count = Codec.Reader.uvarint r in
  let blk_qmax = Codec.Reader.uvarint r in
  let blk_min_docid = Codec.Reader.uvarint r in
  { blk_count; blk_qmax; blk_min_docid }

let decode_block ~sid dict info r =
  let n = info.blk_count in
  let stream () =
    let w = Codec.Reader.uvarint r in
    Codec.Bitpack.unpack r ~width:w ~count:n
  in
  let idxs = stream () in
  let zdocs = stream () in
  let zends = stream () in
  let lens = stream () in
  let unzz z = (z lsr 1) lxor (-(z land 1)) in
  let prev_doc = ref info.blk_min_docid and prev_end = ref 0 in
  let out = ref [] in
  for i = 0 to n - 1 do
    let idx = idxs.(i) in
    if idx >= Array.length dict then
      raise (Codec.Reader.Malformed "Rpl.decode_block: score index out of range");
    let score = dict.(idx) in
    let docid = !prev_doc + unzz zdocs.(i) in
    let endpos = !prev_end + unzz zends.(i) in
    let length = lens.(i) in
    prev_doc := docid;
    prev_end := endpos;
    out := { element = { Types.sid; docid; endpos; length }; score } :: !out
  done;
  List.rev !out

(* Cut a sorted entry list into (key, segment) rows: blocks of
   [block_entries] entries, segments flushed just before the byte
   budget so every row stays inside the B+tree entry budget. The
   dictionary grows per segment; a block whose addition would overflow
   is re-encoded against the next segment's fresh dictionary. *)
let segment_rows ~key_of_first entries =
  let rec chunk_blocks acc = function
    | [] -> List.rev acc
    | l ->
        let rec take n acc rest =
          match (n, rest) with
          | 0, _ | _, [] -> (List.rev acc, rest)
          | n, x :: tl -> take (n - 1) (x :: acc) tl
        in
        let block, rest = take block_entries [] l in
        chunk_blocks (block :: acc) rest
  in
  let rows = ref [] in
  let w = ref (Codec.Block.Writer.create ()) in
  let dict = ref (Dict.create ()) in
  let seg_first = ref None in
  let flush () =
    match !seg_first with
    | None -> ()
    | Some first ->
        rows :=
          (key_of_first first, Codec.Block.Writer.contents ~extra:(Dict.encode !dict) !w)
          :: !rows;
        w := Codec.Block.Writer.create ();
        dict := Dict.create ();
        seg_first := None
  in
  List.iter
    (fun block ->
      let news = Dict.news !dict block in
      let header, payload = encode_block !dict block in
      let projected =
        Codec.Block.Writer.byte_estimate !w
        + String.length header + String.length payload
        + (8 * (!dict).Dict.n) + 16
      in
      if (not (Codec.Block.Writer.is_empty !w)) && projected > segment_budget then begin
        (* The dictionary already holds this block's new scores; they
           must not leak into the flushed segment's dictionary, so roll
           them back before flushing and re-encode against the fresh
           one. *)
        let d = !dict in
        List.iter (fun s -> Hashtbl.remove d.Dict.tbl s) news;
        d.Dict.n <- d.Dict.n - List.length news;
        d.Dict.rev <-
          (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
           drop (List.length news) d.Dict.rev);
        flush ();
        let header, payload = encode_block !dict block in
        seg_first := Some (List.hd block);
        Codec.Block.Writer.add !w ~header ~payload
      end
      else begin
        if !seg_first = None then seg_first := Some (List.hd block);
        Codec.Block.Writer.add !w ~header ~payload
      end)
    (chunk_blocks [] entries);
  flush ();
  List.rev !rows

(* ---- catalog ---- *)

let catalog_key ~term ~sid = pair_prefix ~term ~sid

(* Catalog rows: entry count, stored bytes, a truncated flag — {e
   explicit}, since a bound of 0.0 must still certify — and, for
   truncated RPL prefixes, the score bound below which entries were
   dropped. *)
type catalog_row = {
  cat_entries : int;
  cat_bytes : int;
  cat_bound : float;
  cat_truncated : bool;
}

let decode_catalog_row v =
  let r = Codec.Reader.of_string v in
  let cat_entries = Codec.Reader.uvarint r in
  let cat_bytes = Codec.Reader.uvarint r in
  let cat_truncated = Codec.Reader.uvarint r = 1 in
  let cat_bound = if cat_truncated then Codec.Reader.float r else 0.0 in
  { cat_entries; cat_bytes; cat_bound; cat_truncated }

(* A missing catalog table means no list of its kind is materialized:
   reads leave it missing rather than create it. *)
let catalog_table index kind =
  let env = Index.env index and name = catalog_name kind in
  if Env.has_table env name then Some (Env.table env name) else None

let catalog_find index kind ~term ~sid =
  Option.bind (catalog_table index kind) (fun tbl ->
      Option.map decode_catalog_row (Bptree.find tbl (catalog_key ~term ~sid)))

let encode_catalog_row ~entries ~bytes ~truncated ~bound =
  let b = Codec.Buf.create ~capacity:24 () in
  Codec.Buf.add_uvarint b entries;
  Codec.Buf.add_uvarint b bytes;
  Codec.Buf.add_uvarint b (if truncated then 1 else 0);
  if truncated then Codec.Buf.add_float b bound;
  Codec.Buf.contents b

let is_materialized index kind ~term ~sid =
  catalog_find index kind ~term ~sid <> None

let covers index kind ~sids ~terms =
  List.for_all
    (fun term -> List.for_all (fun sid -> is_materialized index kind ~term ~sid) sids)
    terms

let list_bytes index kind ~term ~sid =
  match catalog_find index kind ~term ~sid with Some c -> c.cat_bytes | None -> 0

let list_entries index kind ~term ~sid =
  match catalog_find index kind ~term ~sid with Some c -> c.cat_entries | None -> 0

let list_bound index kind ~term ~sid =
  match catalog_find index kind ~term ~sid with Some c -> c.cat_bound | None -> 0.0

let list_truncated index kind ~term ~sid =
  match catalog_find index kind ~term ~sid with
  | Some c -> c.cat_truncated
  | None -> false

let catalog index kind =
  let out = ref [] in
  Option.iter
    (fun tbl ->
      Bptree.iter tbl (fun k v ->
          let term, p = Codec.string_of_key k ~pos:0 in
          let sid, _ = Codec.int_of_key k ~pos:p in
          let row = decode_catalog_row v in
          out := (term, sid, row.cat_entries, row.cat_bytes) :: !out))
    (catalog_table index kind);
  List.rev !out

let total_bytes index kind =
  List.fold_left (fun acc (_, _, _, b) -> acc + b) 0 (catalog index kind)

(* ---- building ---- *)

type build_report = {
  pairs_built : (string * int) list;
  pairs_reused : int;
  entries_written : int;
  bytes_estimate : int;
}

let compare_rpl_order a b =
  match compare b.score a.score with
  | 0 -> Types.compare_element a.element b.element
  | c -> c

let compare_erpl_order a b = Types.compare_element a.element b.element

let rec list_take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: list_take (n - 1) rest

(* The drop of one list as physical manifest actions, catalog row
   first: once it is gone the list is not servable (planning and
   cursors go through the catalog). *)
let drop_actions kind ~term ~sid =
  [
    Manifest.Remove { table = catalog_name kind; key = catalog_key ~term ~sid };
    Manifest.Remove_prefix
      { table = table_name kind; prefix = pair_prefix ~term ~sid };
  ]

(* One list's rows and catalog row as puts, with its entry count and
   encoded bytes (keys included). *)
let list_puts kind ~term ~sid ?prefix entries =
  let sorted =
    List.sort
      (match kind with Rpl -> compare_rpl_order | Erpl -> compare_erpl_order)
      entries
  in
  (* RPL prefixes (paper §4): keep only the best [n] entries and record
     the bound every dropped entry is below, with an explicit truncated
     flag (a bound of 0.0 must still certify). *)
  let sorted, bound, truncated =
    match (kind, prefix) with
    | Rpl, Some n when List.length sorted > n ->
        let kept = list_take n sorted in
        let bound =
          match List.rev kept with last :: _ -> last.score | [] -> 0.0
        in
        (kept, bound, true)
    | (Rpl | Erpl), _ -> (sorted, 0.0, false)
  in
  let rows =
    segment_rows ~key_of_first:(fun first -> chunk_key kind ~term ~sid first) sorted
  in
  let bytes =
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 rows
  in
  let entries = List.length sorted in
  let puts =
    List.map (fun (key, value) -> Manifest.Put { table = table_name kind; key; value }) rows
    @ [
        Manifest.Put
          {
            table = catalog_name kind;
            key = catalog_key ~term ~sid;
            value = encode_catalog_row ~entries ~bytes ~truncated ~bound;
          };
      ]
  in
  (puts, entries, bytes)

let build index ~scoring ~sids ~terms ~kinds ?rpl_prefix () =
  let sids = List.sort_uniq compare sids in
  let missing kind term sid = catalog_find index kind ~term ~sid = None in
  let work =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun term ->
            List.filter_map
              (fun sid -> if missing kind term sid then Some (kind, term, sid) else None)
              sids)
          terms)
      kinds
  in
  let pairs_total = List.length kinds * List.length terms * List.length sids in
  if work = [] then
    {
      pairs_built = [];
      pairs_reused = pairs_total;
      entries_written = 0;
      bytes_estimate = 0;
    }
  else begin
    let results, _stats = Era.run index ~sids ~terms in
    let per_term = Era.per_term_scores index ~scoring ~terms results in
    (* Group each term's entries by sid for per-(term, sid) lists. *)
    let by_pair : (string * int, entry list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (term, entries) ->
        List.iter
          (fun (element, score) ->
            let key = (term, element.Types.sid) in
            let cell =
              match Hashtbl.find_opt by_pair key with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.add by_pair key c;
                  c
            in
            cell := { element; score } :: !cell)
          entries)
      per_term;
    (* One redo-logged op writes every list: each pair's drop (clearing
       chunks a crashed build or drop left under it) and then its rows,
       so a crash leaves each list whole or absent. A kind with no list
       left starts from empty tables first: B+trees never shrink, so the
       pages of every dropped list would stay allocated for good. The
       checkpoints around make the reset safe (no unended op wrote the
       tables) and the lists durable on return, for a process that
       opens the environment next. *)
    let env = Index.env index in
    Env.checkpoint env;
    List.iter
      (fun kind ->
        if catalog index kind = [] then begin
          Env.drop_table env (table_name kind);
          Env.drop_table env (catalog_name kind)
        end)
      (List.sort_uniq compare (List.map (fun (k, _, _) -> k) work));
    let lists =
      List.map
        (fun (kind, term, sid) ->
          let entries =
            match Hashtbl.find_opt by_pair (term, sid) with Some c -> !c | None -> []
          in
          ((term, sid), list_puts kind ~term ~sid ?prefix:rpl_prefix entries))
        work
    in
    Env.run_logged_op env ~op:"rpl_build"
      ~steps:
        (List.concat_map (fun (kind, term, sid) -> drop_actions kind ~term ~sid) work
        @ List.concat_map (fun (_, (puts, _, _)) -> puts) lists)
      ();
    Env.checkpoint env;
    let sum f = List.fold_left (fun acc (_, l) -> acc + f l) 0 lists in
    {
      pairs_built = List.map fst lists;
      pairs_reused = pairs_total - List.length work;
      entries_written = sum (fun (_, n, _) -> n);
      bytes_estimate = sum (fun (_, _, bytes) -> bytes);
    }
  end

let drop_lists index lists =
  Env.run_logged_op (Index.env index) ~op:"rpl_drop"
    ~steps:(List.concat_map (fun (kind, term, sid) -> drop_actions kind ~term ~sid) lists)
    ()

let drop index kind ~term ~sid = drop_lists index [ (kind, term, sid) ]

let drop_all index kind =
  drop_lists index (List.map (fun (term, sid, _, _) -> (kind, term, sid)) (catalog index kind))

(* ---- cursors ---- *)

module Cursor = struct
  exception Missing_list of { kind : kind; term : string; sid : int }

  type seg_state = {
    ss_seg : Codec.Block.t;
    ss_dict : float array;
    mutable ss_next : int;
  }

  (* One (term, sid) list: lazily decoded blocks behind a B+tree cursor
     bounded to the pair prefix. A score floor (set only by the RPL
     term cursor below) ends a descending-score list at the first block
     whose quantized max is at or below it, undecoded. *)
  type t = {
    cursor : Bptree.Cursor.cursor;
    sid : int;
    mutable floor : float;
    mutable chunk : entry list;
    mutable seg : seg_state option;
    mutable finished : bool;
    mutable read : int;
    mutable blocks_decoded : int;
    mutable blocks_skipped : int;
    mutable floor_stopped : bool;
    mutable bound : float;
        (* catalog truncation bound, raised to the floor-stopped
           block's max *)
    stored_truncated : bool;
  }

  let create index kind ~term ~sid =
    check_generation index (table_name kind);
    check_generation index (catalog_name kind);
    match catalog_find index kind ~term ~sid with
    | None -> raise (Missing_list { kind; term; sid })
    | Some row ->
        let prefix = pair_prefix ~term ~sid in
        let tbl = Env.table (Index.env index) (table_name kind) in
        {
          cursor = Bptree.Cursor.seek_prefix tbl ~prefix prefix;
          sid;
          floor = 0.0;
          chunk = [];
          seg = None;
          finished = false;
          read = 0;
          blocks_decoded = 0;
          blocks_skipped = 0;
          floor_stopped = false;
          bound = row.cat_bound;
          stored_truncated = row.cat_truncated;
        }

  let rec fill t =
    match t.seg with
    | Some st when st.ss_next < Codec.Block.block_count st.ss_seg ->
        let i = st.ss_next in
        let info = decode_block_header (Codec.Block.header st.ss_seg i) in
        let qmax = Codec.Block.dequantize info.blk_qmax in
        if t.floor > 0.0 && qmax <= t.floor then begin
          (* Descending score order: every entry from this block on is
             at or below the floor. The quantized max is >= the true
             max, so stopping here is rank-safe. *)
          t.floor_stopped <- true;
          t.bound <- Float.max t.bound qmax;
          t.blocks_skipped <-
            t.blocks_skipped + (Codec.Block.block_count st.ss_seg - i);
          t.seg <- None;
          t.finished <- true
        end
        else begin
          st.ss_next <- i + 1;
          t.blocks_decoded <- t.blocks_decoded + 1;
          t.chunk <-
            decode_block ~sid:t.sid st.ss_dict info (Codec.Block.payload st.ss_seg i)
        end
    | _ -> (
        t.seg <- None;
        if not t.finished then
          match Bptree.Cursor.next t.cursor with
          | Some (_, v) ->
              let seg = Codec.Block.of_string v in
              t.seg <-
                Some
                  { ss_seg = seg; ss_dict = decode_dict (Codec.Block.extra seg); ss_next = 0 };
              fill t
          | None -> t.finished <- true)

  let rec next t =
    match t.chunk with
    | e :: rest ->
        t.chunk <- rest;
        t.read <- t.read + 1;
        Some e
    | [] ->
        if t.finished then None
        else begin
          fill t;
          next t
        end

  let entries_read t = t.read
  let blocks_decoded t = t.blocks_decoded
end

module Term_cursor = struct
  (* The query's per-sid readers of one term, merged by a heap in the
     RPL entry order. *)
  module Heap = Trex_util.Heap.Make (struct
    type t = entry * Cursor.t

    let compare (a, _) (b, _) = compare_rpl_order a b
  end)

  type t = { readers : Cursor.t array; heap : Heap.t; mutable read : int }

  let create index ~term ~sids =
    let heap = Heap.create () in
    let readers =
      List.sort_uniq compare sids
      |> List.map (fun sid -> Cursor.create index Rpl ~term ~sid)
      |> Array.of_list
    in
    Array.iter
      (fun r -> Option.iter (fun e -> Heap.push heap (e, r)) (Cursor.next r))
      readers;
    { readers; heap; read = 0 }

  (* The heads already buffered stay: only yet-undecoded blocks are
     pruned, which keeps the stream a prefix of the unbounded one. *)
  let set_bound t floor = Array.iter (fun (r : Cursor.t) -> r.floor <- floor) t.readers

  let next t =
    match Heap.pop t.heap with
    | None -> None
    | Some (e, r) ->
        Option.iter (fun e' -> Heap.push t.heap (e', r)) (Cursor.next r);
        t.read <- t.read + 1;
        Some e

  let entries_read t = t.read

  let blocks_skipped t =
    Array.fold_left (fun acc (r : Cursor.t) -> acc + r.blocks_skipped) 0 t.readers

  let truncation_bound t =
    Array.fold_left (fun acc (r : Cursor.t) -> Float.max acc r.bound) 0.0 t.readers

  let truncated t =
    Array.exists (fun (r : Cursor.t) -> r.stored_truncated || r.floor_stopped) t.readers
end
