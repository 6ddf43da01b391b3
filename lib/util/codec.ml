let key_of_int n =
  (* Flip the sign bit so that negative ints sort below positive ones
     under unsigned byte comparison. *)
  let u = Int64.logxor (Int64.of_int n) Int64.min_int in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 u;
  Bytes.unsafe_to_string b

let int_of_key s ~pos =
  if pos + 8 > String.length s then invalid_arg "Codec.int_of_key";
  let u = String.get_int64_be s pos in
  (Int64.to_int (Int64.logxor u Int64.min_int), pos + 8)

let key_of_float f =
  let bits = Int64.bits_of_float f in
  (* Positive floats: set the sign bit; negative floats: flip all bits.
     Standard order-preserving IEEE-754 transform. *)
  let u =
    if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int
    else Int64.lognot bits
  in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 u;
  Bytes.unsafe_to_string b

let key_of_string s =
  let n = String.length s in
  let b = Buffer.create (n + 2) in
  for i = 0 to n - 1 do
    match s.[i] with
    | '\x00' ->
        (* Escape NUL as 0x00 0xFF so the 0x00 0x01 terminator stays
           prefix-free. *)
        Buffer.add_char b '\x00';
        Buffer.add_char b '\xff'
    | c -> Buffer.add_char b c
  done;
  Buffer.add_char b '\x00';
  Buffer.add_char b '\x01';
  Buffer.contents b

let string_of_key s ~pos =
  let b = Buffer.create 16 in
  let n = String.length s in
  let rec loop i =
    if i >= n then invalid_arg "Codec.string_of_key: unterminated"
    else
      match s.[i] with
      | '\x00' ->
          if i + 1 >= n then invalid_arg "Codec.string_of_key: truncated"
          else if s.[i + 1] = '\x01' then i + 2
          else if s.[i + 1] = '\xff' then (
            Buffer.add_char b '\x00';
            loop (i + 2))
          else invalid_arg "Codec.string_of_key: bad escape"
      | c ->
          Buffer.add_char b c;
          loop (i + 1)
  in
  let next = loop pos in
  (Buffer.contents b, next)

let concat_keys = String.concat ""

(* Zig-zag LEB128: small magnitudes of either sign stay short. The
   zig-zagged value is treated as an unsigned 63-bit pattern ([lsr]
   shifts in zeroes), so the full int range round-trips. *)
let zigzag n = (n lsl 1) lxor (n asr 62)

let varint_size n =
  let rec go z acc = if z lsr 7 = 0 then acc else go (z lsr 7) (acc + 1) in
  go (zigzag n) 1

let set_varint b pos n =
  let rec go z pos =
    let rest = z lsr 7 in
    if rest = 0 then begin
      Bytes.set b pos (Char.unsafe_chr z);
      pos + 1
    end
    else begin
      Bytes.set b pos (Char.unsafe_chr ((z land 0x7f) lor 0x80));
      go rest (pos + 1)
    end
  in
  go (zigzag n) pos

module Buf = struct
  type t = Buffer.t

  let create ?(capacity = 64) () = Buffer.create capacity
  let contents = Buffer.contents

  (* LEB128 of the full 63-bit pattern: [lsr] treats the sign bit as
     bit 62, so a negative word takes nine bytes, which
     {!Reader.uvarint} reads back exactly. *)
  let rec add_word b n =
    let low = n land 0x7f in
    let rest = n lsr 7 in
    if rest = 0 then Buffer.add_char b (Char.chr low)
    else (
      Buffer.add_char b (Char.chr (low lor 0x80));
      add_word b rest)

  let add_varint b n = add_word b (zigzag n)

  (* Plain LEB128 for quantities that are non-negative by construction
     (counts, lengths, docids): saves the zig-zag bit and documents the
     invariant at the call site. *)
  let add_uvarint b n =
    if n < 0 then invalid_arg "Codec.Buf.add_uvarint: negative";
    add_word b n

  let add_int64_le b i =
    let tmp = Bytes.create 8 in
    Bytes.set_int64_le tmp 0 i;
    Buffer.add_bytes b tmp

  let add_int32_le b i =
    let tmp = Bytes.create 4 in
    Bytes.set_int32_le tmp 0 i;
    Buffer.add_bytes b tmp

  let add_float b f = add_int64_le b (Int64.bits_of_float f)

  let add_string b s =
    add_varint b (String.length s);
    Buffer.add_string b s

  let add_raw b s = Buffer.add_string b s
end

module Reader = struct
  type t = { s : string; mutable pos : int }

  exception Truncated
  exception Malformed of string

  let of_string s = { s; pos = 0 }
  let pos r = r.pos
  let at_end r = r.pos >= String.length r.s

  let byte r =
    if r.pos >= String.length r.s then raise Truncated;
    let c = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    c

  (* A 63-bit pattern needs at most 9 LEB128 bytes (shifts 0..56).
     Corrupt pages can contain arbitrarily long runs of continuation
     bytes; without the shift bound those silently wrapped past bit 63
     and decoded to garbage. Overlong encodings (a redundant trailing
     0x00 group) are also rejected so that every value has exactly one
     accepted encoding. *)
  let uvarint r =
    let rec go shift acc =
      let c = byte r in
      if shift > 56 then raise (Malformed "Codec.Reader: varint too long");
      if c = 0 && shift > 0 then
        raise (Malformed "Codec.Reader: overlong varint");
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0

  let varint r =
    let z = uvarint r in
    (z lsr 1) lxor (-(z land 1))

  let int64_le r =
    if r.pos + 8 > String.length r.s then raise Truncated;
    let v = String.get_int64_le r.s r.pos in
    r.pos <- r.pos + 8;
    v

  let float r = Int64.float_of_bits (int64_le r)

  let raw r n =
    if r.pos + n > String.length r.s then raise Truncated;
    let v = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    v

  let int32_le r =
    if r.pos + 4 > String.length r.s then raise Truncated;
    let v = String.get_int32_le r.s r.pos in
    r.pos <- r.pos + 4;
    v

  let string r =
    let n = varint r in
    if n < 0 then raise Truncated;
    raw r n
end

module Bitpack = struct
  (* Fixed-width bit packing (frame-of-reference style): [count] values
     of [width] bits each, LSB-first within and across bytes. The
     encoder keeps fewer than 8 pending bits and the decoder fewer than
     [width + 8 <= 64] loaded bits, so with [max_width = 56] no shift
     ever pushes a live bit past OCaml's 63-bit int. *)
  let max_width = 56

  let width values =
    let m = Array.fold_left max 0 values in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits m 0

  let pack b ~width values =
    if width < 0 || width > max_width then
      invalid_arg "Codec.Bitpack.pack: width out of range";
    if width > 0 then begin
      let acc = ref 0 and nbits = ref 0 in
      Array.iter
        (fun v ->
          if v < 0 || v lsr width <> 0 then
            invalid_arg "Codec.Bitpack.pack: value exceeds width";
          acc := !acc lor (v lsl !nbits);
          nbits := !nbits + width;
          while !nbits >= 8 do
            Buffer.add_char b (Char.unsafe_chr (!acc land 0xff));
            acc := !acc lsr 8;
            nbits := !nbits - 8
          done)
        values;
      if !nbits > 0 then Buffer.add_char b (Char.chr (!acc land 0xff))
    end

  let unpack r ~width ~count =
    if width < 0 || width > max_width then
      raise (Reader.Malformed "Codec.Bitpack: width out of range");
    if count < 0 then raise (Reader.Malformed "Codec.Bitpack: negative count");
    let out = Array.make (max count 0) 0 in
    if width > 0 then begin
      let acc = ref 0 and nbits = ref 0 in
      let mask = (1 lsl width) - 1 in
      for i = 0 to count - 1 do
        while !nbits < width do
          acc := !acc lor (Reader.byte r lsl !nbits);
          nbits := !nbits + 8
        done;
        out.(i) <- !acc land mask;
        acc := !acc lsr width;
        nbits := !nbits - width
      done
    end;
    out
end

module Block = struct
  (* A {e segment} packs several delta-encoded blocks into one table
     value behind a skip directory: per-block caller-defined headers
     (first/last docid, quantized max score, ...) come first, payloads
     are concatenated after, so a cursor can inspect every block's
     bounds and decode only the blocks it actually needs.

     Layout:  varint -2 | crc32 (4B LE, over everything after itself)
              | extra (length-prefixed segment header)
              | uvarint n_blocks | n x (header, uvarint payload_len)
              | concatenated payloads

     The leading varint is the shape check: a value that is not a
     segment (a fixed-width chunk opens with a non-negative count) or
     is corrupt fails with [Malformed] instead of being misread. *)

  let marker = -2

  (* Skip-entry score bounds are quantized {e up} to 1/1024 steps: the
     stored bound is >= every score in the block, so pruning on it is
     rank-safe, while exact scores travel separately (dictionary-coded
     by the RPL layer) and are returned unchanged. *)
  let scale = 1024.0
  let quantize_up x = if x <= 0.0 then 0 else int_of_float (ceil (x *. scale))
  let dequantize q = float_of_int q /. scale

  module Writer = struct
    type t = {
      mutable rev_blocks : (string * string) list; (* header, payload *)
      mutable bytes : int;
    }

    let create () = { rev_blocks = []; bytes = 0 }
    let block_count w = List.length w.rev_blocks
    let is_empty w = w.rev_blocks = []

    let add w ~header ~payload =
      w.rev_blocks <- (header, payload) :: w.rev_blocks;
      w.bytes <- w.bytes + String.length header + String.length payload + 4

    let byte_estimate w = w.bytes + 16

    let contents ?(extra = "") w =
      let blocks = List.rev w.rev_blocks in
      let body = Buf.create ~capacity:(w.bytes + String.length extra + 16) () in
      Buf.add_string body extra;
      Buf.add_uvarint body (List.length blocks);
      List.iter
        (fun (h, p) ->
          Buf.add_string body h;
          Buf.add_uvarint body (String.length p))
        blocks;
      List.iter (fun (_, p) -> Buf.add_raw body p) blocks;
      let body = Buf.contents body in
      let out = Buf.create ~capacity:(String.length body + 12) () in
      Buf.add_varint out marker;
      Buf.add_int32_le out (Crc32.string body);
      Buf.add_raw out body;
      Buf.contents out
  end

  type t = {
    extra : string;
    headers : string array;
    offsets : int array; (* absolute offsets of each payload in [raw] *)
    lengths : int array;
    raw : string;
  }

  let of_string s =
    let r = Reader.of_string s in
    if Reader.varint r <> marker then
      raise (Reader.Malformed "Codec.Block: not a segment");
    let crc_stored = Reader.int32_le r in
    let body_pos = Reader.pos r in
    let body_len = String.length s - body_pos in
    let crc =
      Crc32.bytes (Bytes.unsafe_of_string s) ~pos:body_pos ~len:body_len
    in
    if not (Int32.equal crc crc_stored) then
      raise (Reader.Malformed "Codec.Block: checksum mismatch");
    let extra = Reader.string r in
    let n = Reader.uvarint r in
    if n > body_len then
      raise (Reader.Malformed "Codec.Block: implausible block count");
    let headers = Array.make n "" in
    let lengths = Array.make n 0 in
    (* Explicit in-order loop: the reader is stateful, so
       Array.init/List.init (unspecified application order) would
       be exactly the bug this module exists to avoid. *)
    for i = 0 to n - 1 do
      headers.(i) <- Reader.string r;
      lengths.(i) <- Reader.uvarint r
    done;
    let offsets = Array.make n 0 in
    let off = ref (Reader.pos r) in
    for i = 0 to n - 1 do
      offsets.(i) <- !off;
      off := !off + lengths.(i)
    done;
    if !off <> String.length s then
      raise (Reader.Malformed "Codec.Block: directory does not cover payload");
    { extra; headers; offsets; lengths; raw = s }

  let extra t = t.extra
  let block_count t = Array.length t.headers
  let header t i = Reader.of_string t.headers.(i)
  let payload t i = Reader.of_string (String.sub t.raw t.offsets.(i) t.lengths.(i))
end
