(* Tests for trex_util: codecs, PRNG, Zipf, heap, stop-clock. *)

module Codec = Trex_util.Codec
module Prng = Trex_util.Prng
module Zipf = Trex_util.Zipf
module Heap = Trex_util.Heap
module Stopclock = Trex_util.Stopclock
module Framing = Trex_util.Framing

let check = Alcotest.check

(* ---- codec unit tests ---- *)

let test_int_key_roundtrip () =
  List.iter
    (fun n ->
      let k = Codec.key_of_int n in
      check Alcotest.int "8 bytes" 8 (String.length k);
      let n', next = Codec.int_of_key k ~pos:0 in
      check Alcotest.int "roundtrip" n n';
      check Alcotest.int "consumed" 8 next)
    [ 0; 1; -1; 42; max_int; min_int; 1 lsl 40; -(1 lsl 40) ]

let test_int_key_order () =
  let pairs = [ (min_int, -1); (-1, 0); (0, 1); (1, max_int); (-500, 500) ] in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d < %d" a b)
        true
        (String.compare (Codec.key_of_int a) (Codec.key_of_int b) < 0))
    pairs

let test_string_key_escaping () =
  let s = "a\x00b\x00\x00c" in
  let k = Codec.key_of_string s in
  let s', _ = Codec.string_of_key k ~pos:0 in
  check Alcotest.string "NUL roundtrip" s s'

let test_string_key_prefix_free () =
  (* "ab" vs "ab\x00c": neither encoded key may be a prefix of the other
     in a way that breaks composite ordering. *)
  let a = Codec.key_of_string "ab" and b = Codec.key_of_string "abc" in
  Alcotest.(check bool) "ab < abc" true (String.compare a b < 0);
  let a2 = Codec.concat_keys [ Codec.key_of_string "ab"; Codec.key_of_int 9 ] in
  let b2 = Codec.concat_keys [ Codec.key_of_string "abc"; Codec.key_of_int 0 ] in
  Alcotest.(check bool) "composite order follows first field" true
    (String.compare a2 b2 < 0)

let test_float_key_order () =
  let vals = [ -1e10; -1.5; -0.0; 0.0; 1e-9; 1.0; 3.14; 1e10 ] in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        if a < b then
          Alcotest.(check bool)
            (Printf.sprintf "%g < %g" a b)
            true
            (String.compare (Codec.key_of_float a) (Codec.key_of_float b) < 0);
        pairs rest
    | _ -> ()
  in
  pairs vals

let test_varint_roundtrip () =
  let b = Codec.Buf.create () in
  let values = [ 0; 1; -1; 63; 64; -64; 1000000; -1000000; max_int / 2 ] in
  List.iter (Codec.Buf.add_varint b) values;
  let r = Codec.Reader.of_string (Codec.Buf.contents b) in
  List.iter
    (fun v -> check Alcotest.int "varint" v (Codec.Reader.varint r))
    values;
  Alcotest.(check bool) "at end" true (Codec.Reader.at_end r)

let test_buf_string_float () =
  let b = Codec.Buf.create () in
  Codec.Buf.add_string b "hello";
  Codec.Buf.add_float b 2.5;
  Codec.Buf.add_string b "";
  let r = Codec.Reader.of_string (Codec.Buf.contents b) in
  check Alcotest.string "string" "hello" (Codec.Reader.string r);
  check (Alcotest.float 0.0) "float" 2.5 (Codec.Reader.float r);
  check Alcotest.string "empty string" "" (Codec.Reader.string r)

let test_reader_truncated () =
  let r = Codec.Reader.of_string "\x05ab" in
  Alcotest.check_raises "truncated string" Codec.Reader.Truncated (fun () ->
      ignore (Codec.Reader.string r))

(* ---- codec property tests ---- *)

let prop_int_key_order =
  QCheck.Test.make ~name:"int key order matches int order" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let ka = Codec.key_of_int a and kb = Codec.key_of_int b in
      compare a b = compare (String.compare ka kb) 0 |> ignore;
      (* signum comparison *)
      let sgn x = compare x 0 in
      sgn (compare a b) = sgn (String.compare ka kb))

let prop_string_key_order =
  QCheck.Test.make ~name:"string key order matches string order" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 20)))
    (fun (a, b) ->
      let sgn x = compare x 0 in
      sgn (String.compare a b)
      = sgn (String.compare (Codec.key_of_string a) (Codec.key_of_string b)))

let prop_string_key_roundtrip =
  QCheck.Test.make ~name:"string key roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 40))
    (fun s ->
      let decoded, _ = Codec.string_of_key (Codec.key_of_string s) ~pos:0 in
      decoded = s)

(* [set_varint] and [varint_size] must agree byte for byte with the
   Buffer encoder: B+tree pages are written by one and sized by the
   other. *)
let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500 QCheck.int (fun n ->
      let b = Codec.Buf.create () in
      Codec.Buf.add_varint b n;
      let s = Codec.Buf.contents b in
      let direct = Bytes.make (String.length s + 2) '\xee' in
      Codec.Reader.varint (Codec.Reader.of_string s) = n
      && Codec.varint_size n = String.length s
      && Codec.set_varint direct 1 n = 1 + String.length s
      && Bytes.sub_string direct 1 (String.length s) = s)

let prop_float_key_order =
  QCheck.Test.make ~name:"float key order matches float order" ~count:500
    QCheck.(pair (float_bound_exclusive 1e15) (float_bound_exclusive 1e15))
    (fun (a, b) ->
      let sgn x = compare x 0 in
      sgn (compare a b)
      = sgn (String.compare (Codec.key_of_float a) (Codec.key_of_float b)))

(* ---- PRNG ---- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 50 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Prng.float rng 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done

let test_prng_split_independent () =
  let a = Prng.create 99 in
  let b = Prng.split a in
  let va = Prng.int a 1000000 in
  let vb = Prng.int b 1000000 in
  Alcotest.(check bool) "streams differ" true (va <> vb)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 3 in
  let arr = Array.init 30 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 30 (fun i -> i)) sorted

(* ---- Zipf ---- *)

let test_zipf_rank0_most_frequent () =
  let z = Zipf.create 100 in
  let rng = Prng.create 5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank0 beats rank10" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank1 beats rank50" true (counts.(1) > counts.(50))

let test_zipf_mass_sums_to_one () =
  let z = Zipf.create 50 in
  let total = ref 0.0 in
  for r = 0 to 49 do
    total := !total +. Zipf.expected_frequency z r
  done;
  check (Alcotest.float 1e-9) "mass" 1.0 !total

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create") (fun () ->
      ignore (Zipf.create 0))

(* ---- Heap ---- *)

module Int_heap = Heap.Make (Int)

let test_heap_basic () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  check Alcotest.int "length" 6 (Int_heap.length h);
  check (Alcotest.option Alcotest.int) "peek" (Some 1) (Int_heap.peek h);
  check (Alcotest.list Alcotest.int) "sorted drain" [ 1; 2; 3; 5; 8; 9 ]
    (Int_heap.to_sorted_list h)

let test_heap_push_pop () =
  let h = Int_heap.create () in
  check Alcotest.int "push_pop empty" 7 (Int_heap.push_pop h 7);
  List.iter (Int_heap.push h) [ 4; 6 ];
  check Alcotest.int "push_pop below min" 1 (Int_heap.push_pop h 1);
  check Alcotest.int "push_pop above min" 4 (Int_heap.push_pop h 9);
  check Alcotest.int "size unchanged" 2 (Int_heap.length h)

let test_heap_counts_operations () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 3; 1; 2 ];
  Alcotest.(check bool) "ops counted" true (Int_heap.operations h > 0)

(* Regression: the early-return paths of push_pop (empty heap, x below
   the minimum) used to skip the ops bump, under-counting exactly the
   invocations TA's accounting needs to charge. *)
let test_heap_push_pop_counts_ops () =
  let h = Int_heap.create () in
  let ops0 = Int_heap.operations h in
  ignore (Int_heap.push_pop h 7);
  Alcotest.(check bool) "empty heap counted" true (Int_heap.operations h > ops0);
  Int_heap.push h 5;
  let ops1 = Int_heap.operations h in
  ignore (Int_heap.push_pop h 1);
  Alcotest.(check bool) "below-min counted" true (Int_heap.operations h > ops1);
  let ops2 = Int_heap.operations h in
  ignore (Int_heap.push_pop h 9);
  Alcotest.(check bool) "replace counted" true (Int_heap.operations h > ops2)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drain equals sort" ~count:300
    QCheck.(list int)
    (fun l ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) l;
      Int_heap.to_sorted_list h = List.sort compare l)

(* ---- Stopclock ---- *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let test_stopclock_pause_excludes_time () =
  let c = Stopclock.create () in
  spin 0.01;
  Stopclock.pause c;
  spin 0.03;
  Stopclock.resume c;
  spin 0.01;
  let e = Stopclock.elapsed c in
  let p = Stopclock.paused_time c in
  Alcotest.(check bool) "elapsed excludes pause" true (e < 0.03);
  Alcotest.(check bool) "paused time recorded" true (p >= 0.025)

let test_stopclock_idempotent_pause () =
  let c = Stopclock.create () in
  Stopclock.pause c;
  Stopclock.pause c;
  Stopclock.resume c;
  Stopclock.resume c;
  Alcotest.(check bool) "still sane" true (Stopclock.elapsed c >= 0.0)

(* Accounting invariants across a pause/resume cycle: elapsed covers at
   least the running spins, paused covers at least the paused spin, and
   neither exceeds the wall time around the whole sequence. *)
let test_stopclock_accounting () =
  let w0 = Unix.gettimeofday () in
  let c = Stopclock.create () in
  spin 0.01;
  Stopclock.pause c;
  spin 0.01;
  Stopclock.resume c;
  spin 0.005;
  Stopclock.pause c;
  let wall = Unix.gettimeofday () -. w0 in
  let e = Stopclock.elapsed c in
  let p = Stopclock.paused_time c in
  let eps = 1e-3 in
  Alcotest.(check bool) "elapsed covers running spins" true (e >= 0.012);
  Alcotest.(check bool) "paused covers paused spin" true (p >= 0.008);
  Alcotest.(check bool) "elapsed within wall" true (e <= wall +. eps);
  Alcotest.(check bool) "elapsed+paused within wall" true (e +. p <= wall +. eps)

(* [now] is CLOCK_MONOTONIC with a non-decreasing clamp: consecutive
   reads never go backwards and real elapsed time is reflected. *)
let test_stopclock_now_monotonic () =
  let prev = ref (Stopclock.now ()) in
  for _ = 1 to 10_000 do
    let t = Stopclock.now () in
    Alcotest.(check bool) "never decreases" true (t >= !prev);
    prev := t
  done

let test_stopclock_now_advances () =
  let t0 = Stopclock.now () in
  spin 0.01;
  let t1 = Stopclock.now () in
  Alcotest.(check bool) "advances with elapsed time" true (t1 -. t0 >= 0.008)

(* ---- crc32 ---- *)

let test_crc32_vectors () =
  (* The "check" value of the CRC-32/ISO-HDLC catalogue entry. *)
  check Alcotest.int32 "123456789" 0xCBF43926l
    (Trex_util.Crc32.string "123456789");
  check Alcotest.int32 "empty" 0l (Trex_util.Crc32.string "");
  check Alcotest.int32 "four zero bytes" 0x2144DF1Cl
    (Trex_util.Crc32.string (String.make 4 '\x00'))

let test_crc32_chaining () =
  let whole = Trex_util.Crc32.string "hello, world" in
  let part = Trex_util.Crc32.string "hello, " in
  check Alcotest.int32 "chained equals whole" whole
    (Trex_util.Crc32.string ~init:part "world");
  let b = Bytes.of_string "xxhello, worldyy" in
  check Alcotest.int32 "range" whole
    (Trex_util.Crc32.bytes b ~pos:2 ~len:12)

let prop_crc32_bit_flip_detected =
  let open QCheck in
  Test.make ~name:"crc32 detects any single bit flip" ~count:200
    (pair (string_of_size Gen.(1 -- 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      let byte = byte mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      Trex_util.Crc32.string s
      <> Trex_util.Crc32.bytes b ~pos:0 ~len:(Bytes.length b))

(* ---- framing: incremental stream decoder ---- *)

(* Cut a byte stream into chunks at positions drawn from [cuts],
   simulating the short reads/writes a socket delivers. *)
let chunks_of stream cuts =
  let n = String.length stream in
  let rec go pos cuts acc =
    if pos >= n then List.rev acc
    else
      let take =
        match cuts with c :: _ -> min (c + 1) (n - pos) | [] -> n - pos
      in
      let rest = match cuts with _ :: r -> r | [] -> [] in
      go (pos + take) rest (String.sub stream pos take :: acc)
  in
  go 0 cuts []

let prop_framing_chunked_decode =
  let open QCheck in
  Test.make ~name:"frame decoding is chunking-invariant" ~count:300
    (pair
       (list_of_size Gen.(0 -- 12) (string_of_size Gen.(0 -- 64)))
       (list_of_size Gen.(0 -- 40) (int_bound 16)))
    (fun (payloads, cuts) ->
      let stream =
        String.concat ""
          (List.map (fun p -> Bytes.to_string (Framing.frame p)) payloads)
      in
      let d = Framing.Decoder.create () in
      let out = ref [] in
      let rec drain () =
        match Framing.Decoder.next d with
        | Some p ->
            out := p :: !out;
            drain ()
        | None -> ()
      in
      List.iter
        (fun chunk ->
          Framing.Decoder.feed_string d chunk;
          drain ())
        (chunks_of stream cuts);
      List.rev !out = payloads && Framing.Decoder.buffered d = 0)

let prop_framing_corruption_detected =
  let open QCheck in
  Test.make ~name:"decoder rejects any payload bit flip" ~count:200
    (pair (string_of_size Gen.(1 -- 64)) (pair small_nat small_nat))
    (fun (payload, (byte, bit)) ->
      let b = Framing.frame payload in
      let byte = 8 + (byte mod String.length payload) and bit = bit mod 8 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      let d = Framing.Decoder.create () in
      Framing.Decoder.feed d b 0 (Bytes.length b);
      match Framing.Decoder.next d with
      | exception Framing.Corrupt_frame _ -> true
      | _ -> false)

let test_framing_decoder_absurd_length () =
  let d = Framing.Decoder.create () in
  let b = Bytes.make 8 '\x00' in
  Bytes.set_int32_le b 0 0x7f000000l;
  Framing.Decoder.feed d b 0 8;
  match Framing.Decoder.next d with
  | exception Framing.Corrupt_frame _ -> ()
  | _ -> Alcotest.fail "absurd length header must raise Corrupt_frame"

(* write_all / recv across a real socketpair: multi-frame traffic with
   one payload larger than recv's 64KiB read chunk, then a clean EOF. *)
let test_framing_socketpair_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ "alpha"; ""; String.init 70_000 (fun i -> Char.chr (i mod 251)) ] in
  List.iter (fun p -> Framing.append a p) payloads;
  Unix.close a;
  let d = Framing.Decoder.create () in
  List.iter
    (fun expect ->
      match Framing.recv b d with
      | Some got -> Alcotest.(check string) "payload" expect got
      | None -> Alcotest.fail "premature EOF")
    payloads;
  Alcotest.(check bool) "clean EOF" true (Framing.recv b d = None);
  Unix.close b

let test_framing_eof_inside_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let whole = Framing.frame "cut short" in
  Framing.write_all a (Bytes.sub whole 0 (Bytes.length whole - 3));
  Unix.close a;
  let d = Framing.Decoder.create () in
  (match Framing.recv b d with
  | exception Framing.Corrupt_frame _ -> ()
  | _ -> Alcotest.fail "EOF inside a frame must raise Corrupt_frame");
  Unix.close b

(* ---- framing: deadline-bounded reads ---- *)

let test_recv_deadline_basics () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Idle peer → Idle_timeout, promptly. *)
  let d = Framing.Decoder.create () in
  let t0 = Trex_util.Stopclock.now () in
  (match Framing.recv_deadline ~idle_timeout_s:0.03 b d with
  | Framing.Idle_timeout -> ()
  | _ -> Alcotest.fail "expected Idle_timeout on a silent peer");
  let dt = Trex_util.Stopclock.now () -. t0 in
  Alcotest.(check bool) "idle timeout fired promptly" true (dt < 1.0);
  (* A whole frame already buffered beats both deadlines. *)
  Framing.append a "prompt";
  (match Framing.recv_deadline ~idle_timeout_s:0.03 ~frame_timeout_s:0.03 b d with
  | Framing.Frame p -> Alcotest.(check string) "payload" "prompt" p
  | _ -> Alcotest.fail "expected the buffered frame");
  (* Clean EOF at a frame boundary. *)
  Unix.close a;
  (match Framing.recv_deadline ~idle_timeout_s:1.0 b d with
  | Framing.Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Unix.close b

let test_recv_deadline_eof_inside_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let whole = Framing.frame "cut short" in
  Framing.write_all a (Bytes.sub whole 0 (Bytes.length whole - 3));
  Unix.close a;
  let d = Framing.Decoder.create () in
  (match Framing.recv_deadline ~frame_timeout_s:1.0 b d with
  | exception Framing.Corrupt_frame _ -> ()
  | _ -> Alcotest.fail "EOF inside a frame must raise Corrupt_frame");
  Unix.close b

(* The slowloris property: a peer dribbling a frame byte-by-byte keeps
   the stream "active" (every inter-byte gap is well under the frame
   deadline) yet must NOT be able to extend that deadline — the read
   returns Frame_timeout at the absolute deadline, long before the
   dribble would have completed the frame. *)
let prop_recv_deadline_dribble_cannot_extend =
  let open QCheck in
  Test.make ~name:"byte dribble cannot extend the frame deadline" ~count:8
    (pair (string_of_size Gen.(8 -- 24)) (int_bound 3))
    (fun (payload, jitter) ->
      let frame = Framing.frame payload in
      let n = Bytes.length frame in
      let gap_s = 0.015 +. (0.002 *. float_of_int jitter) in
      let deadline_s = 0.06 in
      (* The dribble alone would need far longer than the deadline. *)
      assert (float_of_int (n - 1) *. gap_s > 2.0 *. deadline_s);
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
          (* Child: dribble one byte per gap, forever as far as the
             parent's deadline is concerned. *)
          Unix.close b;
          (try
             for i = 0 to n - 1 do
               Framing.write_all a (Bytes.sub frame i 1);
               ignore (Unix.select [] [] [] gap_s)
             done
           with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close a;
          let d = Framing.Decoder.create () in
          let t0 = Trex_util.Stopclock.now () in
          let outcome = Framing.recv_deadline ~frame_timeout_s:deadline_s b d in
          let dt = Trex_util.Stopclock.now () -. t0 in
          Unix.close b;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          (* Timed out as a torn frame, at the deadline — not at the
             dribble's own pace (which would be ≥ (n-1) * gap). *)
          outcome = Framing.Frame_timeout
          && dt >= deadline_s *. 0.5
          && dt < float_of_int (n - 1) *. gap_s)

(* ---- varint strictness, bit packing, block segments ---- *)

let test_malformed_varints () =
  let reject name s =
    let r = Codec.Reader.of_string s in
    match Codec.Reader.uvarint r with
    | _ -> Alcotest.failf "%s decoded" name
    | exception Codec.Reader.Malformed _ -> ()
  in
  (* Overlong: a redundant trailing zero group re-encodes the same
     value with more bytes. *)
  reject "overlong 0x80 0x00" "\x80\x00";
  (* Too long: ten continuation groups shift past bit 63. *)
  reject "ten continuation bytes" (String.make 10 '\x81');
  let r = Codec.Reader.of_string "\x80" in
  Alcotest.check_raises "truncated mid-varint" Codec.Reader.Truncated
    (fun () -> ignore (Codec.Reader.uvarint r))

let prop_uvarint_roundtrip =
  QCheck.Test.make ~name:"uvarint roundtrip" ~count:500
    QCheck.(map abs int)
    (fun n ->
      let n = abs n in
      let b = Codec.Buf.create () in
      Codec.Buf.add_uvarint b n;
      Codec.Reader.uvarint (Codec.Reader.of_string (Codec.Buf.contents b)) = n)

(* Bitmaps use all 63 bits: bit 62 is the sign bit, so a word is any
   int, negative ones included. *)
let prop_word_roundtrip =
  QCheck.Test.make ~name:"word roundtrip, sign bit included" ~count:500
    QCheck.(oneof [ int; oneofl [ min_int; -1; max_int; 1 lsl 62 ] ])
    (fun n ->
      let b = Codec.Buf.create () in
      Codec.Buf.add_word b n;
      let r = Codec.Reader.of_string (Codec.Buf.contents b) in
      Codec.Reader.uvarint r = n && Codec.Reader.at_end r)

let prop_bitpack_roundtrip =
  QCheck.Test.make ~name:"bitpack roundtrip at exact width" ~count:500
    QCheck.(pair (int_bound Codec.Bitpack.max_width) (list small_nat))
    (fun (extra_width, l) ->
      let values = Array.of_list l in
      let w = min Codec.Bitpack.max_width (Codec.Bitpack.width values + (extra_width mod 3)) in
      let b = Codec.Buf.create () in
      Codec.Bitpack.pack b ~width:w values;
      let s = Codec.Buf.contents b in
      (* Packed size is exactly ceil(count * width / 8). *)
      String.length s = ((Array.length values * w) + 7) / 8
      && Codec.Bitpack.unpack (Codec.Reader.of_string s) ~width:w
           ~count:(Array.length values)
         = values)

let test_bitpack_bounds () =
  let b = Codec.Buf.create () in
  Alcotest.check_raises "value wider than width"
    (Invalid_argument "Codec.Bitpack.pack: value exceeds width") (fun () ->
      Codec.Bitpack.pack b ~width:2 [| 4 |]);
  Alcotest.check_raises "width over max"
    (Invalid_argument "Codec.Bitpack.pack: width out of range") (fun () ->
      Codec.Bitpack.pack b ~width:57 [| 0 |]);
  (match
     Codec.Bitpack.unpack (Codec.Reader.of_string "") ~width:57 ~count:0
   with
  | _ -> Alcotest.fail "unpack accepted width 57"
  | exception Codec.Reader.Malformed _ -> ());
  (* max_width itself round-trips the largest value. *)
  let v = (1 lsl Codec.Bitpack.max_width) - 1 in
  let b = Codec.Buf.create () in
  Codec.Bitpack.pack b ~width:Codec.Bitpack.max_width [| v; 0; v |];
  check (Alcotest.array Alcotest.int) "56-bit values" [| v; 0; v |]
    (Codec.Bitpack.unpack
       (Codec.Reader.of_string (Codec.Buf.contents b))
       ~width:Codec.Bitpack.max_width ~count:3)

let segment_gen =
  (* A segment of 1-6 blocks with random short header/payload strings,
     plus an optional extra. *)
  QCheck.Gen.(
    let str = string_size ~gen:printable (1 -- 12) in
    triple (string_size ~gen:printable (0 -- 8))
      (list_size (1 -- 6) (pair str str))
      (pair small_nat small_nat))

let prop_block_segment_roundtrip =
  QCheck.Test.make ~name:"block segment roundtrip" ~count:300
    (QCheck.make segment_gen)
    (fun (extra, blocks, _) ->
      let w = Codec.Block.Writer.create () in
      List.iter
        (fun (header, payload) -> Codec.Block.Writer.add w ~header ~payload)
        blocks;
      let seg = Codec.Block.of_string (Codec.Block.Writer.contents ~extra w) in
      Codec.Block.extra seg = extra
      && Codec.Block.block_count seg = List.length blocks
      && List.for_all2
           (fun i (header, payload) ->
             let h = Codec.Block.header seg i in
             let p = Codec.Block.payload seg i in
             Codec.Reader.raw h (String.length header) = header
             && Codec.Reader.raw p (String.length payload) = payload)
           (List.init (List.length blocks) Fun.id)
           blocks)

let prop_block_segment_corruption_detected =
  QCheck.Test.make ~name:"corrupt segment never decodes" ~count:300
    (QCheck.make segment_gen)
    (fun (extra, blocks, (byte, bit)) ->
      let w = Codec.Block.Writer.create () in
      List.iter
        (fun (header, payload) -> Codec.Block.Writer.add w ~header ~payload)
        blocks;
      let s = Codec.Block.Writer.contents ~extra w in
      let b = Bytes.of_string s in
      let byte = byte mod Bytes.length b and bit = bit mod 8 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      (* A single flipped bit must never yield a valid segment: the CRC
         or the marker check rejects it (Malformed), or the length
         prefix overruns (Truncated). *)
      match Codec.Block.of_string (Bytes.to_string b) with
      | _ -> false
      | exception (Codec.Reader.Malformed _ | Codec.Reader.Truncated) -> true)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trex_util"
    [
      ( "codec",
        [
          Alcotest.test_case "int key roundtrip" `Quick test_int_key_roundtrip;
          Alcotest.test_case "int key order" `Quick test_int_key_order;
          Alcotest.test_case "string key escaping" `Quick test_string_key_escaping;
          Alcotest.test_case "string key prefix-free" `Quick test_string_key_prefix_free;
          Alcotest.test_case "float key order" `Quick test_float_key_order;
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "buf string/float" `Quick test_buf_string_float;
          Alcotest.test_case "reader truncated" `Quick test_reader_truncated;
          qtest prop_int_key_order;
          qtest prop_string_key_order;
          qtest prop_string_key_roundtrip;
          qtest prop_varint_roundtrip;
          qtest prop_float_key_order;
        ] );
      ( "compression-codec",
        [
          Alcotest.test_case "malformed varints rejected" `Quick
            test_malformed_varints;
          Alcotest.test_case "bitpack bounds" `Quick test_bitpack_bounds;
          qtest prop_uvarint_roundtrip;
          qtest prop_word_roundtrip;
          qtest prop_bitpack_roundtrip;
          qtest prop_block_segment_roundtrip;
          qtest prop_block_segment_corruption_detected;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "rank0 most frequent" `Quick test_zipf_rank0_most_frequent;
          Alcotest.test_case "mass sums to one" `Quick test_zipf_mass_sums_to_one;
          Alcotest.test_case "invalid size" `Quick test_zipf_invalid;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "push_pop" `Quick test_heap_push_pop;
          Alcotest.test_case "operation counting" `Quick test_heap_counts_operations;
          Alcotest.test_case "push_pop counts ops" `Quick
            test_heap_push_pop_counts_ops;
          qtest prop_heap_sorts;
        ] );
      ( "stopclock",
        [
          Alcotest.test_case "pause excludes time" `Quick test_stopclock_pause_excludes_time;
          Alcotest.test_case "idempotent pause/resume" `Quick test_stopclock_idempotent_pause;
          Alcotest.test_case "pause/resume accounting" `Quick test_stopclock_accounting;
          Alcotest.test_case "now never decreases" `Quick test_stopclock_now_monotonic;
          Alcotest.test_case "now advances" `Quick test_stopclock_now_advances;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "chaining" `Quick test_crc32_chaining;
          qtest prop_crc32_bit_flip_detected;
        ] );
      ( "framing",
        [
          qtest prop_framing_chunked_decode;
          qtest prop_framing_corruption_detected;
          Alcotest.test_case "absurd length header" `Quick
            test_framing_decoder_absurd_length;
          Alcotest.test_case "socketpair roundtrip" `Quick
            test_framing_socketpair_roundtrip;
          Alcotest.test_case "EOF inside a frame" `Quick
            test_framing_eof_inside_frame;
          Alcotest.test_case "recv_deadline basics" `Quick
            test_recv_deadline_basics;
          Alcotest.test_case "recv_deadline EOF inside frame" `Quick
            test_recv_deadline_eof_inside_frame;
          qtest prop_recv_deadline_dribble_cannot_extend;
        ] );
    ]
