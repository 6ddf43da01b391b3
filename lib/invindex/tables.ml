module Codec = Trex_util.Codec

module Elements = struct
  let name = "elements"

  let key ~sid ~docid ~endpos =
    Codec.concat_keys
      [ Codec.key_of_int sid; Codec.key_of_int docid; Codec.key_of_int endpos ]

  let sid_prefix sid = Codec.key_of_int sid

  let encode (e : Types.element) =
    let b = Codec.Buf.create ~capacity:8 () in
    Codec.Buf.add_varint b e.length;
    (key ~sid:e.sid ~docid:e.docid ~endpos:e.endpos, Codec.Buf.contents b)

  let decode k v : Types.element =
    let sid, p = Codec.int_of_key k ~pos:0 in
    let docid, p = Codec.int_of_key k ~pos:p in
    let endpos, _ = Codec.int_of_key k ~pos:p in
    let r = Codec.Reader.of_string v in
    let length = Codec.Reader.varint r in
    { sid; docid; endpos; length }
end

module Posting_lists = struct
  let name = "postings"
  let token_prefix token = Codec.key_of_string token

  let key ~token ~(first : Types.pos) =
    Codec.concat_keys
      [
        Codec.key_of_string token;
        Codec.key_of_int first.docid;
        Codec.key_of_int first.offset;
      ]

  (* Posting values are block-compressed segments: several
     delta-encoded blocks share one table value behind a [Codec.Block]
     skip directory, so a posting list costs one key per ~1.5KB and
     decodes lazily per block. *)

  let block_entries = 128
  let segment_budget = 1536

  type block_info = {
    first : Types.pos;
    count : int;
    w_gap : int;  (** bit width of the docid-gap stream *)
    w_delta : int;  (** bit width of same-doc offset deltas *)
    w_abs : int;  (** bit width of doc-change absolute offsets *)
  }

  (* Frame-of-reference block layout. The first position lives in the
     header; the remaining [count - 1] split into three bit-packed
     streams, each at the narrowest width its block needs:

       gaps    docid deltas (one per entry; 0 = same document)
       deltas  offset - previous offset, for entries whose gap is 0
       abs     absolute offset, for entries whose gap is > 0

     Splitting offsets by gap keeps the common same-doc deltas (a few
     bits) from being widened to absolute-offset width, which a single
     packed stream — or plain varints, which spend 8 bits per value
     minimum — would force. The decoder recovers each stream's length
     from the gap stream alone, so no per-entry tags are stored. *)
  let encode_block positions =
    match positions with
    | [] -> invalid_arg "Posting_lists.encode_block: empty block"
    | (first : Types.pos) :: rest ->
        let n = List.length positions in
        let gaps = Array.make (n - 1) 0 in
        let deltas = ref [] and abss = ref [] in
        let prev = ref first in
        List.iteri
          (fun i (p : Types.pos) ->
            let g = p.docid - !prev.docid in
            gaps.(i) <- g;
            if g = 0 then deltas := (p.offset - !prev.offset) :: !deltas
            else abss := p.offset :: !abss;
            prev := p)
          rest;
        let deltas = Array.of_list (List.rev !deltas) in
        let abss = Array.of_list (List.rev !abss) in
        let w_gap = Codec.Bitpack.width gaps in
        let w_delta = Codec.Bitpack.width deltas in
        let w_abs = Codec.Bitpack.width abss in
        let h = Codec.Buf.create ~capacity:16 () in
        Codec.Buf.add_uvarint h first.docid;
        Codec.Buf.add_uvarint h first.offset;
        Codec.Buf.add_uvarint h n;
        Codec.Buf.add_uvarint h w_gap;
        Codec.Buf.add_uvarint h w_delta;
        Codec.Buf.add_uvarint h w_abs;
        let b = Codec.Buf.create ~capacity:256 () in
        Codec.Bitpack.pack b ~width:w_gap gaps;
        Codec.Bitpack.pack b ~width:w_delta deltas;
        Codec.Bitpack.pack b ~width:w_abs abss;
        (Codec.Buf.contents h, Codec.Buf.contents b)

  let decode_block_header r =
    let docid = Codec.Reader.uvarint r in
    let offset = Codec.Reader.uvarint r in
    let count = Codec.Reader.uvarint r in
    if count < 1 then
      raise (Codec.Reader.Malformed "Posting_lists: empty block");
    let w_gap = Codec.Reader.uvarint r in
    let w_delta = Codec.Reader.uvarint r in
    let w_abs = Codec.Reader.uvarint r in
    { first = { Types.docid; offset }; count; w_gap; w_delta; w_abs }

  let decode_block info r =
    let n = info.count in
    let gaps = Codec.Bitpack.unpack r ~width:info.w_gap ~count:(n - 1) in
    let n_abs = Array.fold_left (fun a g -> if g = 0 then a else a + 1) 0 gaps in
    let deltas =
      Codec.Bitpack.unpack r ~width:info.w_delta ~count:(n - 1 - n_abs)
    in
    let abss = Codec.Bitpack.unpack r ~width:info.w_abs ~count:n_abs in
    let prev = ref info.first in
    let di = ref 0 and ai = ref 0 in
    let out = ref [ info.first ] in
    for i = 0 to n - 2 do
      let p =
        if gaps.(i) = 0 then begin
          let p =
            { Types.docid = !prev.docid; offset = !prev.offset + deltas.(!di) }
          in
          incr di;
          p
        end
        else begin
          let p = { Types.docid = !prev.docid + gaps.(i); offset = abss.(!ai) } in
          incr ai;
          p
        end
      in
      prev := p;
      out := p :: !out
    done;
    List.rev !out

  (* Cut a sorted position list into (key, segment-value) rows, packing
     blocks until the byte budget (which keeps every row comfortably
     inside the B+tree entry budget even with long tokens). *)
  let segment_rows ~token positions =
    if positions = [] then invalid_arg "Posting_lists.segment_rows: empty list";
    let rows = ref [] in
    let w = ref (Codec.Block.Writer.create ()) in
    let seg_first = ref None in
    let flush () =
      match !seg_first with
      | None -> ()
      | Some first ->
          rows := (key ~token ~first, Codec.Block.Writer.contents !w) :: !rows;
          w := Codec.Block.Writer.create ();
          seg_first := None
    in
    let rec take n acc rest =
      match (n, rest) with
      | 0, _ | _, [] -> (List.rev acc, rest)
      | n, x :: tl -> take (n - 1) (x :: acc) tl
    in
    let rec loop = function
      | [] -> ()
      | l ->
          let block, rest = take block_entries [] l in
          let header, payload = encode_block block in
          if
            (not (Codec.Block.Writer.is_empty !w))
            && Codec.Block.Writer.byte_estimate !w
               + String.length header + String.length payload
               > segment_budget
          then flush ();
          if !seg_first = None then seg_first := Some (List.hd block);
          Codec.Block.Writer.add !w ~header ~payload;
          loop rest
    in
    loop positions;
    flush ();
    List.rev !rows

  let decode_value v =
    let seg = Codec.Block.of_string v in
    let out = ref [] in
    for i = 0 to Codec.Block.block_count seg - 1 do
      let info = decode_block_header (Codec.Block.header seg i) in
      out := decode_block info (Codec.Block.payload seg i) :: !out
    done;
    List.concat (List.rev !out)
end

module Documents = struct
  type row = { docid : int; name : string; bytes : int; elements : int }

  let name = "documents"

  let encode row =
    let b = Codec.Buf.create () in
    Codec.Buf.add_string b row.name;
    Codec.Buf.add_varint b row.bytes;
    Codec.Buf.add_varint b row.elements;
    (Codec.key_of_int row.docid, Codec.Buf.contents b)

  let decode k v =
    let docid, _ = Codec.int_of_key k ~pos:0 in
    let r = Codec.Reader.of_string v in
    let name = Codec.Reader.string r in
    let bytes = Codec.Reader.varint r in
    let elements = Codec.Reader.varint r in
    { docid; name; bytes; elements }
end

module Terms = struct
  type row = { token : string; df : int; cf : int }

  let name = "terms"

  let encode row =
    let b = Codec.Buf.create ~capacity:8 () in
    Codec.Buf.add_varint b row.df;
    Codec.Buf.add_varint b row.cf;
    (Codec.key_of_string row.token, Codec.Buf.contents b)

  let decode k v =
    let token, _ = Codec.string_of_key k ~pos:0 in
    let r = Codec.Reader.of_string v in
    let df = Codec.Reader.varint r in
    let cf = Codec.Reader.varint r in
    { token; df; cf }
end

let meta_table = "meta"
