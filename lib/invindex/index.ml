module Codec = Trex_util.Codec
module Env = Trex_storage.Env
module Manifest = Trex_storage.Manifest
module Bptree = Trex_storage.Bptree
module Summary = Trex_summary.Summary
module Analyzer = Trex_text.Analyzer
module Dom = Trex_xml.Dom
module Scorer = Trex_scoring.Scorer

type stats = {
  doc_count : int;
  total_bytes : int;
  element_count : int;
  avg_element_length : float;
  term_count : int;
  posting_count : int;
}

type t = {
  env : Env.t;
  summary : Summary.t;
  analyzer : Analyzer.config;
  scoring : Scorer.config;
  mutable stats : stats;
  mutable corpus : stats option;  (* a shard's pinned corpus-wide statistics *)
}

let env t = t.env
let summary t = t.summary
let analyzer t = t.analyzer
let scoring t = t.scoring
let stats t = t.stats

(* ---- metadata (de)serialization ---- *)

let meta_key name = Codec.key_of_string name

(* The on-disk format every table of this build is written in; any
   other value of the [format] key, or none, is refused at attach. *)
let format = "trex-2"

let encode_analyzer (a : Analyzer.config) =
  let b = Codec.Buf.create ~capacity:8 () in
  let flag v = Codec.Buf.add_varint b (if v then 1 else 0) in
  flag a.fold_case;
  flag a.strip_stopwords;
  flag a.stem;
  Codec.Buf.add_varint b a.min_token_length;
  Codec.Buf.contents b

let decode_analyzer s : Analyzer.config =
  let r = Codec.Reader.of_string s in
  let flag () = Codec.Reader.varint r = 1 in
  let fold_case = flag () in
  let strip_stopwords = flag () in
  let stem = flag () in
  let min_token_length = Codec.Reader.varint r in
  { fold_case; strip_stopwords; stem; min_token_length }

let encode_scoring config =
  let buf = Codec.Buf.create ~capacity:20 () in
  (match config with
  | Scorer.Bm25 { k1; b } ->
      Codec.Buf.add_varint buf 0;
      Codec.Buf.add_float buf k1;
      Codec.Buf.add_float buf b
  | Scorer.Tf_idf -> Codec.Buf.add_varint buf 1);
  Codec.Buf.contents buf

let decode_scoring s =
  let r = Codec.Reader.of_string s in
  match Codec.Reader.varint r with
  | 0 ->
      let k1 = Codec.Reader.float r in
      let b = Codec.Reader.float r in
      Scorer.Bm25 { k1; b }
  | _ -> Scorer.Tf_idf

let encode_stats s =
  let b = Codec.Buf.create ~capacity:32 () in
  Codec.Buf.add_varint b s.doc_count;
  Codec.Buf.add_varint b s.total_bytes;
  Codec.Buf.add_varint b s.element_count;
  Codec.Buf.add_float b s.avg_element_length;
  Codec.Buf.add_varint b s.term_count;
  Codec.Buf.add_varint b s.posting_count;
  Codec.Buf.contents b

let decode_stats s =
  let r = Codec.Reader.of_string s in
  let doc_count = Codec.Reader.varint r in
  let total_bytes = Codec.Reader.varint r in
  let element_count = Codec.Reader.varint r in
  let avg_element_length = Codec.Reader.float r in
  let term_count = Codec.Reader.varint r in
  let posting_count = Codec.Reader.varint r in
  { doc_count; total_bytes; element_count; avg_element_length; term_count; posting_count }

(* ---- building ---- *)

(* Collect the text nodes of a parsed document with their source
   offsets, tokenized through the analyzer. *)
let doc_postings analyzer (doc : Dom.doc) =
  let acc = ref [] in
  let rec walk (el : Dom.element) =
    List.iter
      (function
        | Dom.Text { content; start_pos } ->
            acc := Analyzer.tokenize analyzer ~base_offset:start_pos content :: !acc
        | Dom.Element child -> walk child)
      el.children
  in
  walk doc.root;
  List.concat (List.rev !acc)

let build ~env ~summary ?(analyzer = Analyzer.default) ?(scoring = Scorer.default)
    docs =
  let element_rows = ref [] in
  let postings : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 4096 in
  let doc_rows = ref [] in
  let doc_count = ref 0 and total_bytes = ref 0 in
  let element_count = ref 0 and element_length_sum = ref 0 in
  let posting_count = ref 0 in
  let df : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let sources = ref [] in
  Seq.iter
    (fun (name, xml) ->
      let docid = !doc_count in
      incr doc_count;
      total_bytes := !total_bytes + String.length xml;
      let doc = Dom.parse xml in
      let observed = Summary.observe_document summary doc in
      List.iter
        (fun (sid, (el : Dom.element)) ->
          incr element_count;
          element_length_sum := !element_length_sum + Dom.length el;
          element_rows :=
            { Types.sid; docid; endpos = el.end_pos; length = Dom.length el }
            :: !element_rows)
        observed;
      let seen_in_doc = Hashtbl.create 64 in
      List.iter
        (fun (term, offset) ->
          incr posting_count;
          if not (Hashtbl.mem seen_in_doc term) then begin
            Hashtbl.add seen_in_doc term ();
            Hashtbl.replace df term (1 + Option.value ~default:0 (Hashtbl.find_opt df term))
          end;
          let cell =
            match Hashtbl.find_opt postings term with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add postings term l;
                l
          in
          cell := (docid, offset) :: !cell)
        (doc_postings analyzer doc);
      doc_rows :=
        {
          Tables.Documents.docid;
          name;
          bytes = String.length xml;
          elements = List.length observed;
        }
        :: !doc_rows;
      sources := (docid, xml) :: !sources)
    docs;
  (* Elements: sort rows by (sid, docid, endpos) and bulk load. Keys are
     strictly ascending: two extent-mates can share an endpos only by
     nesting, which nesting-free summaries exclude. *)
  let elements_tbl = Env.table env Tables.Elements.name in
  let sorted_elements =
    List.sort
      (fun (a : Types.element) b ->
        match compare a.sid b.sid with
        | 0 -> Types.compare_element a b
        | c -> c)
      !element_rows
  in
  ignore
    (Bptree.bulk_load (Bptree.pager elements_tbl)
       (List.to_seq sorted_elements |> Seq.map Tables.Elements.encode));
  Bptree.refresh elements_tbl;
  (* PostingLists: per-term position-sorted segments, bulk-loaded in
     key order. Tokens are produced in document order per term, so the
     accumulated (reversed) lists just need reversing. *)
  let tokens =
    Hashtbl.fold (fun tok _ acc -> tok :: acc) postings []
    |> List.sort String.compare
  in
  let posting_rows token =
    let cell = Hashtbl.find postings token in
    Tables.Posting_lists.segment_rows ~token
      (List.rev_map (fun (docid, offset) -> { Types.docid; offset }) !cell)
  in
  let postings_tbl = Env.table env Tables.Posting_lists.name in
  let posting_seq =
    List.to_seq tokens |> Seq.concat_map (fun tok -> List.to_seq (posting_rows tok))
  in
  ignore (Bptree.bulk_load (Bptree.pager postings_tbl) posting_seq);
  Bptree.refresh postings_tbl;
  let documents_tbl = Env.table env Tables.Documents.name in
  List.iter
    (fun row ->
      let k, v = Tables.Documents.encode row in
      Bptree.insert documents_tbl ~key:k ~value:v)
    (List.rev !doc_rows);
  (* Sources: raw XML chunked under (docid, chunk_no) so documents of
     any size fit the B+tree entry budget. *)
  let sources_tbl = Env.table env "sources" in
  let source_chunk = 1024 in
  List.iter
    (fun (docid, xml) ->
      let len = String.length xml in
      let n_chunks = (len + source_chunk - 1) / source_chunk in
      for c = 0 to max 0 (n_chunks - 1) do
        let piece = String.sub xml (c * source_chunk) (min source_chunk (len - (c * source_chunk))) in
        Bptree.insert sources_tbl
          ~key:(Codec.concat_keys [ Codec.key_of_int docid; Codec.key_of_int c ])
          ~value:piece
      done)
    (List.rev !sources);
  let terms_tbl = Env.table env Tables.Terms.name in
  List.iter
    (fun token ->
      let cf = List.length !(Hashtbl.find postings token) in
      let dfv = Option.value ~default:0 (Hashtbl.find_opt df token) in
      let k, v = Tables.Terms.encode { Tables.Terms.token; df = dfv; cf } in
      Bptree.insert terms_tbl ~key:k ~value:v)
    tokens;
  let stats =
    {
      doc_count = !doc_count;
      total_bytes = !total_bytes;
      element_count = !element_count;
      avg_element_length =
        (if !element_count = 0 then 0.0
         else float_of_int !element_length_sum /. float_of_int !element_count);
      term_count = List.length tokens;
      posting_count = !posting_count;
    }
  in
  let meta = Env.table env Tables.meta_table in
  Bptree.insert meta ~key:(meta_key "summary") ~value:(Summary.to_string summary);
  Bptree.insert meta ~key:(meta_key "analyzer") ~value:(encode_analyzer analyzer);
  Bptree.insert meta ~key:(meta_key "scoring") ~value:(encode_scoring scoring);
  Bptree.insert meta ~key:(meta_key "stats") ~value:(encode_stats stats);
  Bptree.insert meta ~key:(meta_key "format") ~value:format;
  Env.flush env;
  { env; summary; analyzer; scoring; stats; corpus = None }

exception No_index of string

let () =
  Printexc.register_printer (function
    | No_index where -> Some ("no index at " ^ where)
    | _ -> None)

let require env =
  if not (Env.has_table env Tables.meta_table) then
    raise (No_index (Option.value (Env.dir env) ~default:"memory"))

let check_format env =
  match Bptree.find (Env.table env Tables.meta_table) (meta_key "format") with
  | Some found when found = format -> ()
  | found -> raise (Manifest.Unsupported_format { found; expected = format })

let attach env =
  (* An env holding no index fails as such before any table is created,
     then the format is checked before anything is decoded. *)
  require env;
  check_format env;
  let meta = Env.table env Tables.meta_table in
  let get name =
    match Bptree.find meta (meta_key name) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Index.attach: missing meta key %s" name)
  in
  {
    env;
    summary = Summary.of_string (get "summary");
    analyzer = decode_analyzer (get "analyzer");
    scoring = decode_scoring (get "scoring");
    stats = decode_stats (get "stats");
    corpus = Option.map decode_stats (Bptree.find meta (meta_key "corpus"));
  }

(* ---- lookups ---- *)

let term_stats t token =
  match Bptree.find (Env.table t.env Tables.Terms.name) (Codec.key_of_string token) with
  | Some v -> Some (Tables.Terms.decode (Codec.key_of_string token) v)
  | None -> None

(* ---- scoring statistics ---- *)

let scoring_stats t = Option.value t.corpus ~default:t.stats

let term_df t token =
  match term_stats t token with Some row -> row.Tables.Terms.df | None -> 0

(* A shard's Terms rows take the corpus-wide df, so a shard scores
   through the same lookups as a whole-corpus index; its own [stats]
   stay local, since their doc_count allocates the next docid. *)
let pin_corpus t corpus ~df =
  let terms_tbl = Env.table t.env Tables.Terms.name in
  let rows = ref [] in
  Bptree.iter terms_tbl (fun k v ->
      let row = Tables.Terms.decode k v in
      rows :=
        Tables.Terms.encode { row with Tables.Terms.df = df row.Tables.Terms.token }
        :: !rows);
  Bptree.insert_batch terms_tbl (List.rev !rows);
  Bptree.insert (Env.table t.env Tables.meta_table) ~key:(meta_key "corpus")
    ~value:(encode_stats corpus);
  t.corpus <- Some corpus

exception Unpinned_statistics

let require_pinned t = if t.corpus = None then raise Unpinned_statistics

let iter_terms t f =
  Bptree.iter (Env.table t.env Tables.Terms.name) (fun k v ->
      let row = Tables.Terms.decode k v in
      f row.Tables.Terms.token ~df:row.Tables.Terms.df ~cf:row.Tables.Terms.cf)

let normalize_term t raw = Analyzer.normalize t.analyzer raw

let document t docid =
  let key = Codec.key_of_int docid in
  match Bptree.find (Env.table t.env Tables.Documents.name) key with
  | Some v -> Some (Tables.Documents.decode key v)
  | None -> None

let documents t =
  let out = ref [] in
  Bptree.iter (Env.table t.env Tables.Documents.name) (fun k v ->
      out := Tables.Documents.decode k v :: !out);
  List.rev !out

let source t docid =
  let tbl = Env.table t.env "sources" in
  let b = Buffer.create 4096 in
  let found = ref false in
  Bptree.iter_prefix tbl ~prefix:(Codec.key_of_int docid) (fun _ v ->
      found := true;
      Buffer.add_string b v);
  if !found then Some (Buffer.contents b) else None

let element_text t (e : Types.element) =
  match source t e.docid with
  | None -> None
  | Some xml ->
      let start = Types.start_pos e in
      if start < 0 || e.endpos > String.length xml || e.length <= 0 then None
      else Some (String.sub xml start e.length)

let elements_bytes t = Env.table_bytes t.env Tables.Elements.name
let postings_bytes t = Env.table_bytes t.env Tables.Posting_lists.name

(* ---- iterators ---- *)

module Posting_iter = struct
  type iter = {
    cursor : Bptree.Cursor.cursor;
    mutable chunk : Types.pos list;
    mutable segment : (Codec.Block.t * int) option;
        (* current segment and next undecoded block index: blocks are
           decoded one at a time as the chunk drains *)
    mutable exhausted : bool;
  }

  let create t token =
    let tbl = Env.table t.env Tables.Posting_lists.name in
    let prefix = Tables.Posting_lists.token_prefix token in
    {
      cursor = Bptree.Cursor.seek_prefix tbl ~prefix prefix;
      chunk = [];
      segment = None;
      exhausted = false;
    }

  let rec next_position it =
    match it.chunk with
    | p :: rest ->
        it.chunk <- rest;
        p
    | [] -> (
        match it.segment with
        | Some (seg, i) when i < Codec.Block.block_count seg ->
            let info =
              Tables.Posting_lists.decode_block_header (Codec.Block.header seg i)
            in
            it.chunk <-
              Tables.Posting_lists.decode_block info (Codec.Block.payload seg i);
            it.segment <- Some (seg, i + 1);
            next_position it
        | _ ->
            it.segment <- None;
            if it.exhausted then Types.m_pos
            else begin
              match Bptree.Cursor.next it.cursor with
              | Some (_, v) ->
                  it.segment <- Some (Codec.Block.of_string v, 0);
                  next_position it
              | None ->
                  it.exhausted <- true;
                  Types.m_pos
            end)
end

module Element_iter = struct
  type iter = { tbl : Bptree.t; sid : int; prefix : string }

  let create t sid =
    {
      tbl = Env.table t.env Tables.Elements.name;
      sid;
      prefix = Tables.Elements.sid_prefix sid;
    }

  (* The first extent element at or after [key]. *)
  let seek it key =
    match Bptree.Cursor.next (Bptree.Cursor.seek_prefix it.tbl ~prefix:it.prefix key) with
    | Some (k, v) -> Tables.Elements.decode k v
    | None -> Types.dummy_element

  let first_element it = seek it it.prefix

  let next_element_after it (p : Types.pos) =
    if Types.is_m_pos p then Types.dummy_element
    else begin
      let key =
        Tables.Elements.key ~sid:it.sid ~docid:p.docid ~endpos:(p.offset + 1)
      in
      seek it key
    end
end

(* Incremental ingest as one redo-logged manifest operation
   ([Env.run_logged_op]): nothing is written to any table until the
   whole plan — drops of invalidated redundant lists first, then every
   base-table put with absolute post-state values — is durable in the
   manifest together with its Commit record. A crash before the commit
   leaves the index exactly at the pre-document state; after it,
   recovery replays the idempotent steps. This closes the old
   stale-list window where a crash between dropping RPLs and writing
   [Elements]/[PostingLists] could leave a half-indexed document with
   stale lists still servable. *)
let add_document ?invalidation t ~name ~xml =
  (* A shard's docids are a slice of its coordinator's, and its
     statistics are the coordinator's to move. *)
  if t.corpus <> None then
    invalid_arg "Index.add_document: this index holds a coordinator's shard";
  let docid = t.stats.doc_count in
  let doc = Dom.parse xml in
  let observed = Summary.observe_document t.summary doc in
  let steps = ref [] in
  let put table (key, value) =
    steps := Trex_storage.Manifest.Put { table; key; value } :: !steps
  in
  (* Elements. *)
  let length_sum = ref 0 in
  List.iter
    (fun (sid, (el : Dom.element)) ->
      length_sum := !length_sum + Dom.length el;
      put Tables.Elements.name
        (Tables.Elements.encode
           { Types.sid; docid; endpos = el.end_pos; length = Dom.length el }))
    observed;
  (* Postings: the new docid exceeds every existing one, so fresh
     segments sort after each term's existing segments. *)
  let tokens = doc_postings t.analyzer doc in
  let by_term : (string, Types.pos list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (term, offset) ->
      let cell =
        match Hashtbl.find_opt by_term term with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.add by_term term c;
            c
      in
      cell := { Types.docid; offset } :: !cell)
    tokens;
  let terms_tbl = Env.table t.env Tables.Terms.name in
  let new_terms = ref 0 in
  let doc_terms = ref [] in
  Hashtbl.iter
    (fun term cell ->
      doc_terms := term :: !doc_terms;
      let positions = List.rev !cell in
      List.iter
        (put Tables.Posting_lists.name)
        (Tables.Posting_lists.segment_rows ~token:term positions);
      (* Terms rows are logged as absolute post-state (not +1 deltas)
         so replaying the step is idempotent. *)
      let row =
        match Bptree.find terms_tbl (Codec.key_of_string term) with
        | Some v ->
            let old = Tables.Terms.decode (Codec.key_of_string term) v in
            { old with Tables.Terms.df = old.df + 1; cf = old.cf + List.length positions }
        | None ->
            incr new_terms;
            { Tables.Terms.token = term; df = 1; cf = List.length positions }
      in
      put Tables.Terms.name (Tables.Terms.encode row))
    by_term;
  (* Documents and sources. *)
  put Tables.Documents.name
    (Tables.Documents.encode
       { Tables.Documents.docid; name; bytes = String.length xml; elements = List.length observed });
  let source_chunk = 1024 in
  let len = String.length xml in
  let n_chunks = (len + source_chunk - 1) / source_chunk in
  for c = 0 to n_chunks - 1 do
    let piece = String.sub xml (c * source_chunk) (min source_chunk (len - (c * source_chunk))) in
    put "sources"
      (Codec.concat_keys [ Codec.key_of_int docid; Codec.key_of_int c ], piece)
  done;
  (* Statistics and summary, also absolute post-state. *)
  let old = t.stats in
  let new_element_count = old.element_count + List.length observed in
  let new_stats =
    {
      doc_count = old.doc_count + 1;
      total_bytes = old.total_bytes + String.length xml;
      element_count = new_element_count;
      avg_element_length =
        (if new_element_count = 0 then 0.0
         else
           ((old.avg_element_length *. float_of_int old.element_count)
           +. float_of_int !length_sum)
           /. float_of_int new_element_count);
      term_count = old.term_count + !new_terms;
      posting_count = old.posting_count + List.length tokens;
    }
  in
  put Tables.meta_table (meta_key "summary", Summary.to_string t.summary);
  put Tables.meta_table (meta_key "stats", encode_stats new_stats);
  let doc_terms = List.sort String.compare !doc_terms in
  (* Drops of invalidated redundant lists go first: the stale RPL/ERPL
     lists and their catalog rows disappear before any base table
     changes, and atomically with them. *)
  let drops =
    match invalidation with None -> [] | Some f -> f doc_terms
  in
  Env.run_logged_op t.env ~op:"add_document" ~steps:(drops @ List.rev !steps) ();
  t.stats <- new_stats;
  (docid, doc_terms)

let extent_elements t sid =
  let tbl = Env.table t.env Tables.Elements.name in
  let out = ref [] in
  Bptree.iter_prefix tbl ~prefix:(Tables.Elements.sid_prefix sid) (fun k v ->
      out := Tables.Elements.decode k v :: !out);
  List.rev !out
