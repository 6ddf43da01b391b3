(* Tests for trex_storage: pager, B+tree, environment. *)

module Pager = Trex_storage.Pager
module Bptree = Trex_storage.Bptree
module Env = Trex_storage.Env
module Prng = Trex_util.Prng

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* ---- pager ---- *)

let test_pager_memory_rw () =
  let p = Pager.create_memory ~page_size:256 () in
  let id0 = Pager.allocate p in
  let id1 = Pager.allocate p in
  check Alcotest.int "ids sequential" 1 id1;
  let buf = Bytes.make 256 'x' in
  Pager.write p id0 buf;
  check Alcotest.string "read back" (Bytes.to_string buf)
    (Bytes.to_string (Pager.read p id0));
  check Alcotest.string "other page zeroed" (String.make 256 '\x00')
    (Bytes.to_string (Pager.read p id1))

let test_pager_out_of_range () =
  let p = Pager.create_memory () in
  Alcotest.check_raises "read unallocated"
    (Invalid_argument "Pager: page id 0 out of range [0,0)") (fun () ->
      ignore (Pager.read p 0))

let test_pager_file_persistence () =
  let dir = temp_dir () in
  let path = Filename.concat dir "test.pg" in
  let p = Pager.create_file ~page_size:512 path in
  let id = Pager.allocate p in
  let buf = Bytes.make 512 'q' in
  Pager.write p id buf;
  Pager.set_root p id;
  Pager.close p;
  let p2 = Pager.open_file path in
  check Alcotest.int "page size restored" 512 (Pager.page_size p2);
  check Alcotest.int "page count restored" 1 (Pager.page_count p2);
  check Alcotest.int "root restored" id (Pager.get_root p2);
  check Alcotest.string "content restored" (Bytes.to_string buf)
    (Bytes.to_string (Pager.read p2 id));
  Pager.close p2

let raises_corruption f =
  try
    ignore (f ());
    false
  with Pager.Corruption _ -> true

let test_pager_open_bad_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "junk" in
  let oc = open_out path in
  (* Long enough to hold both header slots, but garbage. *)
  output_string oc (String.concat "" (List.init 8 (fun _ -> "not a pager file....")));
  close_out oc;
  Alcotest.(check bool) "bad magic is typed Corruption" true
    (raises_corruption (fun () -> Pager.open_file path))

let test_pager_open_truncated_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "short" in
  let oc = open_out path in
  output_string oc "TRExPG02tiny";
  close_out oc;
  Alcotest.(check bool) "truncated header is typed Corruption" true
    (raises_corruption (fun () -> Pager.open_file path));
  Alcotest.(check bool) "recovery refuses it too" true
    (raises_corruption (fun () -> Pager.open_with_recovery path))

let test_pager_open_truncated_pages () =
  let dir = temp_dir () in
  let path = Filename.concat dir "chopped.pg" in
  let p = Pager.create_file ~page_size:256 path in
  let id = Pager.allocate p in
  Pager.write p id (Bytes.make 256 'z');
  Pager.set_root p id;
  Pager.close p;
  (* Chop the page region off: the header says 1 page, the file has 0. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd 140;
  Unix.close fd;
  Alcotest.(check bool) "page_count inconsistent with length" true
    (raises_corruption (fun () -> Pager.open_file path))

let test_pager_open_absurd_header () =
  let dir = temp_dir () in
  let path = Filename.concat dir "absurd.pg" in
  let p = Pager.create_file ~page_size:256 path in
  Pager.close p;
  (* Both slots valid; overwrite both with an absurd page_size but a
     correct checksum, which must still be rejected (typed). *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let slot = Bytes.create 64 in
  ignore (Unix.read fd slot 0 64);
  Bytes.set_int64_be slot 16 (Int64.of_int (2 * 1024 * 1024));
  Bytes.set_int32_be slot 60 (Trex_util.Crc32.bytes slot ~pos:0 ~len:60);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  ignore (Unix.write fd slot 0 64);
  ignore (Unix.write fd slot 0 64);
  Unix.close fd;
  Alcotest.(check bool) "absurd page_size rejected" true
    (raises_corruption (fun () -> Pager.open_file path));
  Alcotest.(check bool) "even with recovery" true
    (raises_corruption (fun () -> Pager.open_with_recovery path))

type Pager.decoded += Blob of string

(* A decoded frame is served as is until raw bytes replace it. Its
   encoding lands in the frame's bytes at once, over a zeroed page, and
   a flushed or evicted page reaches the disk in encoded form. *)
let test_pager_decoded_frames () =
  let decodes = ref 0 in
  let decode page =
    incr decodes;
    Blob (Bytes.sub_string page 0 4)
  in
  let encode s page = Bytes.blit_string s 0 page 0 (String.length s) in
  let blob p id =
    match Pager.read_decoded p id ~decode with Blob s -> s | _ -> "?"
  in
  let run p =
    decodes := 0;
    let id = Pager.allocate p in
    Pager.write_decoded p id (Blob "abcd") ~encode:(encode "abcd");
    check Alcotest.string "decoded form served" "abcd" (blob p id);
    check Alcotest.int "no decode" 0 !decodes;
    check Alcotest.string "raw read sees the encoding" "abcd"
      (Bytes.sub_string (Pager.read p id) 0 4);
    Pager.write_decoded p id (Blob "ef") ~encode:(encode "ef");
    check Alcotest.string "latest decoded form" "ef" (blob p id);
    check Alcotest.string "encoded over a zeroed page" "ef\x00\x00"
      (Bytes.sub_string (Pager.read p id) 0 4);
    (* Raw bytes drop the decoded form: decoded again, once. *)
    let raw = Bytes.make (Pager.page_size p) 'z' in
    Pager.write p id raw;
    check Alcotest.string "decoded from raw bytes" "zzzz" (blob p id);
    check Alcotest.string "then cached" "zzzz" (blob p id);
    check Alcotest.int "one decode" 1 !decodes
  in
  run (Pager.create_memory ~page_size:128 ());
  let dir = temp_dir () in
  let path = Filename.concat dir "df.pg" in
  let p = Pager.create_file ~page_size:128 ~cache_pages:2 path in
  run p;
  (* Encoded pages reach the disk through eviction and flush. *)
  let ids = List.init 6 (fun _ -> Pager.allocate p) in
  List.iteri
    (fun i id ->
      let s = Printf.sprintf "p%03d" i in
      Pager.write_decoded p id (Blob s) ~encode:(encode s))
    ids;
  Pager.close p;
  let p = Pager.open_file ~cache_pages:2 path in
  decodes := 0;
  List.iteri
    (fun i id -> check Alcotest.string "reopened" (Printf.sprintf "p%03d" i) (blob p id))
    ids;
  check Alcotest.int "decoded once per miss" 6 !decodes;
  Pager.close p

let test_pager_eviction_under_small_cache () =
  let dir = temp_dir () in
  let path = Filename.concat dir "evict.pg" in
  let p = Pager.create_file ~page_size:128 ~cache_pages:4 path in
  let ids = List.init 20 (fun _ -> Pager.allocate p) in
  List.iteri
    (fun i id ->
      let buf = Bytes.make 128 (Char.chr (65 + (i mod 26))) in
      Pager.write p id buf)
    ids;
  (* Read everything back; the cache holds only 4 pages, so most reads
     must hit the backing file and still return the right bytes. *)
  List.iteri
    (fun i id ->
      let expected = String.make 128 (Char.chr (65 + (i mod 26))) in
      check Alcotest.string
        (Printf.sprintf "page %d content" i)
        expected
        (Bytes.to_string (Pager.read p id)))
    ids;
  let stats = Pager.stats p in
  Alcotest.(check bool) "evictions caused physical writes" true
    (stats.physical_writes > 0);
  Alcotest.(check bool) "cache misses recorded" true (stats.cache_misses > 0);
  Pager.close p

(* ---- B+tree ---- *)

let key_of_int i = Printf.sprintf "key-%06d" i

let test_bptree_insert_find () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 499 do
    Bptree.insert t ~key:(key_of_int i) ~value:(string_of_int (i * i))
  done;
  for i = 0 to 499 do
    check
      (Alcotest.option Alcotest.string)
      (Printf.sprintf "find %d" i)
      (Some (string_of_int (i * i)))
      (Bptree.find t (key_of_int i))
  done;
  check (Alcotest.option Alcotest.string) "missing" None (Bptree.find t "nope");
  check Alcotest.int "length" 500 (Bptree.length t)

let test_bptree_replace () =
  let t = Bptree.create (Pager.create_memory ()) in
  Bptree.insert t ~key:"k" ~value:"v1";
  Bptree.insert t ~key:"k" ~value:"v2";
  check (Alcotest.option Alcotest.string) "replaced" (Some "v2") (Bptree.find t "k");
  check Alcotest.int "no duplicate" 1 (Bptree.length t)

let test_bptree_remove () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 99 do
    Bptree.insert t ~key:(key_of_int i) ~value:"v"
  done;
  Alcotest.(check bool) "removed" true (Bptree.remove t (key_of_int 50));
  Alcotest.(check bool) "already gone" false (Bptree.remove t (key_of_int 50));
  check (Alcotest.option Alcotest.string) "gone" None (Bptree.find t (key_of_int 50));
  check Alcotest.int "length drops" 99 (Bptree.length t)

let test_bptree_cursor_order () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  let keys = List.init 300 key_of_int in
  let shuffled = Array.of_list keys in
  Prng.shuffle (Prng.create 11) shuffled;
  Array.iter (fun k -> Bptree.insert t ~key:k ~value:("v" ^ k)) shuffled;
  let collected = ref [] in
  Bptree.iter t (fun k _ -> collected := k :: !collected);
  check (Alcotest.list Alcotest.string) "in order" keys (List.rev !collected)

let test_bptree_seek_positions_at_lower_bound () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  List.iter
    (fun i -> Bptree.insert t ~key:(key_of_int i) ~value:"v")
    [ 10; 20; 30; 40 ];
  let c = Bptree.Cursor.seek t (key_of_int 25) in
  (match Bptree.Cursor.next c with
  | Some (k, _) -> check Alcotest.string "lower bound" (key_of_int 30) k
  | None -> Alcotest.fail "expected entry");
  let c2 = Bptree.Cursor.seek t (key_of_int 99) in
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "past end" None
    (Bptree.Cursor.next c2)

let test_bptree_iter_prefix () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  List.iter
    (fun k -> Bptree.insert t ~key:k ~value:"v")
    [ "aa1"; "aa2"; "ab1"; "b1"; "aa3" ];
  let out = ref [] in
  Bptree.iter_prefix t ~prefix:"aa" (fun k _ -> out := k :: !out);
  check (Alcotest.list Alcotest.string) "prefix scan" [ "aa1"; "aa2"; "aa3" ]
    (List.rev !out)

let test_bptree_fold_range () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 49 do
    Bptree.insert t ~key:(key_of_int i) ~value:"v"
  done;
  let count =
    Bptree.fold_range t ~low:(key_of_int 10)
      ~high:(Some (key_of_int 20))
      ~init:0
      ~f:(fun acc _ _ -> acc + 1)
  in
  check Alcotest.int "half-open range" 10 count;
  let all =
    Bptree.fold_range t ~low:"" ~high:None ~init:0 ~f:(fun acc _ _ -> acc + 1)
  in
  check Alcotest.int "unbounded" 50 all

let test_bptree_bulk_load_equals_inserts () =
  let entries = List.init 400 (fun i -> (key_of_int i, Printf.sprintf "val%d" i)) in
  let bulk = Bptree.bulk_load (Pager.create_memory ~page_size:512 ()) (List.to_seq entries) in
  check Alcotest.int "length" 400 (Bptree.length bulk);
  List.iter
    (fun (k, v) ->
      check (Alcotest.option Alcotest.string) k (Some v) (Bptree.find bulk k))
    entries;
  let out = ref [] in
  Bptree.iter bulk (fun k v -> out := (k, v) :: !out);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "scan order" entries (List.rev !out)

let test_bptree_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Bptree.bulk_load: keys not strictly ascending") (fun () ->
      ignore
        (Bptree.bulk_load
           (Pager.create_memory ())
           (List.to_seq [ ("b", "1"); ("a", "2") ])))

let test_bptree_bulk_load_empty () =
  let t = Bptree.bulk_load (Pager.create_memory ()) Seq.empty in
  check Alcotest.int "empty" 0 (Bptree.length t);
  check (Alcotest.option Alcotest.string) "find" None (Bptree.find t "x")

let test_bptree_oversized_entry_rejected () =
  let pager = Pager.create_memory ~page_size:512 () in
  let t = Bptree.create pager in
  let big = String.make (Bptree.entry_budget pager + 1) 'z' in
  Alcotest.(check bool) "raises" true
    (try
       Bptree.insert t ~key:"k" ~value:big;
       false
     with Invalid_argument _ -> true)

let test_bptree_persistence () =
  let dir = temp_dir () in
  let path = Filename.concat dir "tree.pg" in
  let t = Bptree.create (Pager.create_file ~page_size:512 path) in
  for i = 0 to 199 do
    Bptree.insert t ~key:(key_of_int i) ~value:(string_of_int i)
  done;
  Pager.close (Bptree.pager t);
  let t2 = Bptree.attach (Pager.open_file path) in
  check Alcotest.int "length after reopen" 200 (Bptree.length t2);
  check (Alcotest.option Alcotest.string) "value survives" (Some "123")
    (Bptree.find t2 (key_of_int 123));
  Pager.close (Bptree.pager t2)

(* Model-based property: a B+tree behaves like a sorted string map
   under random inserts, removes and lookups. *)
let prop_bptree_model =
  let open QCheck in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun k v -> `Insert (k, v)) (string_size (1 -- 8)) (string_size (0 -- 12));
          map (fun k -> `Remove k) (string_size (1 -- 8));
          map (fun k -> `Find k) (string_size (1 -- 8));
        ])
  in
  let ops_arb =
    make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Insert (k, v) -> Printf.sprintf "ins(%S,%S)" k v
               | `Remove k -> Printf.sprintf "del(%S)" k
               | `Find k -> Printf.sprintf "find(%S)" k)
             ops))
      Gen.(list_size (0 -- 200) op_gen)
  in
  Test.make ~name:"bptree matches sorted-map model" ~count:60 ops_arb (fun ops ->
      let t = Bptree.create (Pager.create_memory ~page_size:256 ()) in
      let model = Hashtbl.create 16 in
      List.for_all
        (function
          | `Insert (k, v) ->
              Bptree.insert t ~key:k ~value:v;
              Hashtbl.replace model k v;
              true
          | `Remove k ->
              let expected = Hashtbl.mem model k in
              Hashtbl.remove model k;
              Bptree.remove t k = expected
          | `Find k -> Bptree.find t k = Hashtbl.find_opt model k)
        ops
      &&
      (* Final scan must equal the sorted model. *)
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      let actual = ref [] in
      Bptree.iter t (fun k v -> actual := (k, v) :: !actual);
      List.rev !actual = expected)

(* The model property again, over a file pager whose cache holds only
   3-4 pages, so dirty frames holding decoded nodes are evicted all the
   time. Entries range from 1 byte to the full entry budget. After each
   batch the tree must verify clean — which also checks that every node
   fits its budget and that the decoded length of every page equals
   [encoded_size] — and scan like the model; a close and reopen must
   still equal the model, so the encoded bytes did reach the disk.
   TREX_SOAK_SEEDS multiplies the case count (CI runs 8). *)
module Smap = Map.Make (String)

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

type file_op =
  | F_insert of string * int (* key, value length *)
  | F_remove of string
  | F_find of string
  | F_scan of string * int (* seek key, entries to read *)

let file_op_to_string = function
  | F_insert (k, n) -> Printf.sprintf "ins(%S,%d)" k n
  | F_remove k -> Printf.sprintf "del(%S)" k
  | F_find k -> Printf.sprintf "find(%S)" k
  | F_scan (k, n) -> Printf.sprintf "scan(%S,%d)" k n

let prop_bptree_file_model =
  let page_size = 256 in
  let budget = Bptree.entry_budget (Pager.create_memory ~page_size ()) in
  let open QCheck in
  (* A small key space, so replaces and removes hit live keys. *)
  let key = Gen.(map (fun cs -> String.concat "" cs) (list_size (1 -- 6) (map (String.make 1) (char_range 'a' 'e')))) in
  let op =
    Gen.(
      frequency
        [
          ( 6,
            key >>= fun k ->
            map (fun n -> F_insert (k, n)) (0 -- (budget - String.length k)) );
          (2, map (fun k -> F_remove k) key);
          (1, map (fun k -> F_find k) key);
          (1, map2 (fun k n -> F_scan (k, n)) key (1 -- 20));
        ])
  in
  let arb =
    make
      ~print:(fun (cache, batches) ->
        Printf.sprintf "cache_pages=%d\n%s" cache
          (String.concat "\n"
             (List.map (fun b -> String.concat ";" (List.map file_op_to_string b)) batches)))
      Gen.(pair (3 -- 4) (list_size (1 -- 5) (list_size (0 -- 80) op)))
  in
  Test.make ~name:"bptree on a tiny file cache matches the model" ~count:(40 * soak_seeds ())
    arb (fun (cache_pages, batches) ->
      let dir = temp_dir () in
      let path = Filename.concat dir "model.pg" in
      let value k n = String.init n (fun i -> Char.chr (97 + ((i + String.length k) mod 26))) in
      let scan_model model k n =
        Smap.to_seq_from k model |> Seq.take n |> List.of_seq
      in
      let scan_tree t k n =
        let c = Bptree.Cursor.seek t k in
        List.filter_map (fun _ -> Bptree.Cursor.next c) (List.init n Fun.id)
      in
      let sound t model =
        let r = Bptree.verify t in
        if r.Bptree.problems <> [] then
          Test.fail_reportf "verify: %s" (String.concat "; " r.Bptree.problems);
        r.Bptree.entries = Smap.cardinal model
        && Bptree.length t = Smap.cardinal model
        && List.of_seq (Smap.to_seq model) = scan_tree t "" (Smap.cardinal model + 1)
      in
      let t = Bptree.create (Pager.create_file ~page_size ~cache_pages path) in
      let model = ref Smap.empty in
      let ok =
        List.for_all
          (fun batch ->
            List.for_all
              (function
                | F_insert (k, n) ->
                    let v = value k n in
                    Bptree.insert t ~key:k ~value:v;
                    model := Smap.add k v !model;
                    true
                | F_remove k ->
                    let expected = Smap.mem k !model in
                    model := Smap.remove k !model;
                    Bptree.remove t k = expected
                | F_find k -> Bptree.find t k = Smap.find_opt k !model
                | F_scan (k, n) -> scan_tree t k n = scan_model !model k n)
              batch
            && sound t !model)
          batches
      in
      Pager.close (Bptree.pager t);
      let t = Bptree.attach (Pager.open_file ~cache_pages path) in
      let reopened = sound t !model in
      Pager.close (Bptree.pager t);
      Sys.remove path;
      Unix.rmdir dir;
      ok && reopened)

(* Splitting a leaf at its middle entry rather than its middle byte once
   left a right half of 4 full-budget entries and 2 small ones, past the
   page size (the write then died in [Bytes.blit]). Both the append
   split (last key inserted last) and the byte-balanced one (a middle
   key last) must keep every node within budget. *)
let test_bptree_split_never_overflows () =
  List.iter
    (fun last ->
      let pager = Pager.create_memory ~page_size:256 () in
      let t = Bptree.create pager in
      let big k = (k, String.make (Bptree.entry_budget pager - 1) 'v') in
      let tiny = [ "a0"; "a1"; "a2"; "a3"; "a4"; "a5"; "b0"; "b1" ] in
      let entries = List.map (fun k -> (k, "")) tiny @ List.map big [ "c"; "d"; "e"; "f" ] in
      let first, final = List.partition (fun (k, _) -> k <> last) entries in
      List.iter (fun (key, value) -> Bptree.insert t ~key ~value) (first @ final);
      let r = Bptree.verify t in
      check (Alcotest.list Alcotest.string) ("clean, " ^ last ^ " last") [] r.Bptree.problems;
      Alcotest.(check bool) "split happened" true (r.Bptree.pages > 1);
      List.iter
        (fun (k, v) -> check (Alcotest.option Alcotest.string) k (Some v) (Bptree.find t k))
        entries)
    [ "c"; "f" ]

(* The append split keeps a leaf's old entries on the left and points
   them at the new right page. A rightmost leaf's next of -1 takes one
   varint byte, a page id of 64 or more takes two, so a leaf that was
   exactly full before the append must not take the append split.
   Entries here are 6-byte keys with values under 64 bytes, so a leaf
   of n < 64 entries takes 1 (tag) + 1 (count) + 1 (next) bytes plus
   [8 + value length] per entry. *)
let test_bptree_append_split_exactly_full () =
  let pager = Pager.create_memory ~page_size:256 () in
  let t = Bptree.create pager in
  let budget = Pager.page_size pager - 16 in
  let n = ref 0 in
  let append value_len =
    Bptree.insert t ~key:(Printf.sprintf "k%05d" !n) ~value:(String.make value_len 'v');
    incr n
  in
  (* Grow with 50-byte entries (4 to a leaf) until a split lands past
     page 64; the rightmost leaf then holds that split's key alone. *)
  let rec grow () =
    let pages = Pager.page_count pager in
    append 42;
    if pages < 64 || Pager.page_count pager = pages then grow ()
  in
  grow ();
  (* 3 + 50 bytes so far; four more entries of 47, 47, 47 and 46 bytes
     fill the leaf to exactly the budget. *)
  List.iter append [ 39; 39; 39; 38 ];
  assert (3 + 50 + (3 * 47) + 46 = budget);
  let pages = Pager.page_count pager in
  check (Alcotest.list Alcotest.string) "full leaf verifies" [] (Bptree.verify t).Bptree.problems;
  check Alcotest.int "premise: no split while filling" pages (Pager.page_count pager);
  append 0;
  Alcotest.(check bool) "the append split the leaf" true (Pager.page_count pager > pages);
  check (Alcotest.list Alcotest.string) "clean after the split" [] (Bptree.verify t).Bptree.problems;
  for i = 0 to !n - 1 do
    let key = Printf.sprintf "k%05d" i in
    Alcotest.(check bool) key true (Bptree.find t key <> None)
  done

(* Ascending runs landing between existing keys: each overflow splits
   just before the new entry, so the leaves a run leaves behind stay
   packed (a byte-balanced split would leave them about half full). *)
let test_bptree_middle_runs_fill () =
  let t = Bptree.create (Pager.create_memory ~page_size:1024 ()) in
  for i = 0 to 99 do
    Bptree.insert t ~key:(Printf.sprintf "k%03d" (i * 10)) ~value:"base"
  done;
  List.iter
    (fun at ->
      for j = 0 to 299 do
        Bptree.insert t ~key:(Printf.sprintf "k%03d-%05d" at j) ~value:(String.make 12 'v')
      done)
    [ 100; 300; 500; 700; 900 ];
  let r = Bptree.verify t in
  check (Alcotest.list Alcotest.string) "clean" [] r.Bptree.problems;
  check Alcotest.int "every entry" 1600 r.Bptree.entries;
  Alcotest.(check bool)
    (Printf.sprintf "leaves at least 2/3 full (%.2f)" r.Bptree.fill)
    true
    (r.Bptree.fill >= 2.0 /. 3.0)

(* A batch insert leaves the same table as inserting its pairs in
   order — the last put of a key wins — whether a leaf's share merges
   in place or overflows into per-key splits. *)
let prop_bptree_insert_batch =
  let open QCheck in
  let key = Gen.(map (Printf.sprintf "k%03d") (0 -- 150)) in
  let put = Gen.(pair key (map (fun n -> String.make n 'v') (0 -- 40))) in
  Test.make ~name:"insert_batch equals inserts in order" ~count:100
    (make Gen.(pair (list_size (0 -- 120) put) (list_size (0 -- 200) put)))
    (fun (before, batch) ->
      let fresh () =
        let t = Bptree.create (Pager.create_memory ~page_size:256 ()) in
        List.iter (fun (key, value) -> Bptree.insert t ~key ~value) before;
        t
      in
      let batched = fresh () and inserted = fresh () in
      Bptree.insert_batch batched batch;
      List.iter (fun (key, value) -> Bptree.insert inserted ~key ~value) batch;
      let entries t =
        let l = ref [] in
        Bptree.iter t (fun k v -> l := (k, v) :: !l);
        List.rev !l
      in
      (Bptree.verify batched).Bptree.problems = []
      && entries batched = entries inserted
      && Bptree.length batched = List.length (entries inserted))

(* Nodes are immutable: a cursor keeps the leaf it loaded, so an insert
   into that leaf after positioning does not show through. *)
let test_bptree_cursor_snapshot () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  List.iter (fun k -> Bptree.insert t ~key:k ~value:"v") [ "a"; "c"; "e" ];
  let c = Bptree.Cursor.seek_first t in
  Bptree.insert t ~key:"b" ~value:"new";
  Bptree.insert t ~key:"c" ~value:"replaced";
  let rec drain acc = match Bptree.Cursor.next c with Some e -> drain (e :: acc) | None -> List.rev acc in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "pre-insert entries" [ ("a", "v"); ("c", "v"); ("e", "v") ] (drain []);
  check (Alcotest.option Alcotest.string) "tree sees the insert" (Some "new") (Bptree.find t "b")

(* [verify] decodes every page from its bytes and compares the length
   the decoder consumed with [encoded_size]; trees with every entry size
   from 1 byte to the budget, leaves and internal nodes alike, must
   agree everywhere. *)
let test_bptree_encoded_size () =
  let pager = Pager.create_memory ~page_size:512 () in
  let t = Bptree.create pager in
  let budget = Bptree.entry_budget pager in
  for size = 1 to budget do
    let key =
      if size < 5 then String.make size (Char.chr (64 + size)) else Printf.sprintf "k%04d" size
    in
    Bptree.insert t ~key ~value:(String.make (size - String.length key) 'x')
  done;
  let r = Bptree.verify t in
  check (Alcotest.list Alcotest.string) "sizes agree" [] r.Bptree.problems;
  Alcotest.(check bool) "has internal nodes" true (r.Bptree.depth > 1)

(* ---- environment ---- *)

let test_env_tables () =
  let env = Env.in_memory () in
  let t1 = Env.table env "alpha" in
  Bptree.insert t1 ~key:"k" ~value:"v";
  let t1' = Env.table env "alpha" in
  check (Alcotest.option Alcotest.string) "same table" (Some "v")
    (Bptree.find t1' "k");
  Alcotest.(check bool) "has" true (Env.has_table env "alpha");
  Alcotest.(check bool) "has not" false (Env.has_table env "beta");
  check (Alcotest.list Alcotest.string) "names" [ "alpha" ] (Env.table_names env)

let test_env_bad_name () =
  let env = Env.in_memory () in
  Alcotest.check_raises "bad name" (Invalid_argument "Env.table: bad name a/b")
    (fun () -> ignore (Env.table env "a/b"))

let test_env_drop () =
  let env = Env.in_memory () in
  let t = Env.table env "victim" in
  Bptree.insert t ~key:"k" ~value:"v";
  Env.drop_table env "victim";
  let t2 = Env.table env "victim" in
  check (Alcotest.option Alcotest.string) "fresh after drop" None (Bptree.find t2 "k")

let test_env_compact_reclaims_space () =
  let run_on env =
    let t = Env.table env "fat" in
    for i = 0 to 999 do
      Bptree.insert t ~key:(key_of_int i) ~value:(String.make 64 'x')
    done;
    for i = 0 to 899 do
      ignore (Bptree.remove t (key_of_int i))
    done;
    let before = Env.table_bytes env "fat" in
    Env.compact_table env "fat";
    let t = Env.table env "fat" in
    Alcotest.(check bool) "smaller" true (Env.table_bytes env "fat" < before);
    check Alcotest.int "entries survive" 100 (Bptree.length t);
    check
      (Alcotest.option Alcotest.string)
      "value survives"
      (Some (String.make 64 'x'))
      (Bptree.find t (key_of_int 950))
  in
  run_on (Env.in_memory ~page_size:512 ());
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  run_on env;
  (* Compacted table persists across close/reopen. *)
  Env.close env;
  let env2 = Env.on_disk dir in
  check Alcotest.int "persists" 100 (Bptree.length (Env.table env2 "fat"));
  Env.close env2

let test_env_compact_missing_table_noop () =
  let env = Env.in_memory () in
  Env.compact_table env "ghost";
  Alcotest.(check bool) "still absent" false (Env.has_table env "ghost")

let test_env_on_disk_roundtrip () =
  let dir = temp_dir () in
  let env = Env.on_disk dir in
  let t = Env.table env "data" in
  Bptree.insert t ~key:"hello" ~value:"world";
  Env.close env;
  let env2 = Env.on_disk dir in
  let t2 = Env.table env2 "data" in
  check (Alcotest.option Alcotest.string) "reattached" (Some "world")
    (Bptree.find t2 "hello");
  Alcotest.(check bool) "bytes positive" true (Env.table_bytes env2 "data" > 0);
  Alcotest.(check bool) "total counts it" true
    (Env.total_bytes env2 >= Env.table_bytes env2 "data");
  Env.close env2

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trex_storage"
    [
      ( "pager",
        [
          Alcotest.test_case "memory read/write" `Quick test_pager_memory_rw;
          Alcotest.test_case "out of range" `Quick test_pager_out_of_range;
          Alcotest.test_case "file persistence" `Quick test_pager_file_persistence;
          Alcotest.test_case "open bad file" `Quick test_pager_open_bad_file;
          Alcotest.test_case "open truncated file" `Quick
            test_pager_open_truncated_file;
          Alcotest.test_case "open truncated pages" `Quick
            test_pager_open_truncated_pages;
          Alcotest.test_case "open absurd header" `Quick
            test_pager_open_absurd_header;
          Alcotest.test_case "decoded frames" `Quick test_pager_decoded_frames;
          Alcotest.test_case "eviction with small cache" `Quick
            test_pager_eviction_under_small_cache;
        ] );
      ( "bptree",
        [
          Alcotest.test_case "insert/find" `Quick test_bptree_insert_find;
          Alcotest.test_case "replace" `Quick test_bptree_replace;
          Alcotest.test_case "remove" `Quick test_bptree_remove;
          Alcotest.test_case "cursor order" `Quick test_bptree_cursor_order;
          Alcotest.test_case "seek lower bound" `Quick
            test_bptree_seek_positions_at_lower_bound;
          Alcotest.test_case "iter_prefix" `Quick test_bptree_iter_prefix;
          Alcotest.test_case "fold_range" `Quick test_bptree_fold_range;
          Alcotest.test_case "bulk load equals inserts" `Quick
            test_bptree_bulk_load_equals_inserts;
          Alcotest.test_case "bulk load rejects unsorted" `Quick
            test_bptree_bulk_load_rejects_unsorted;
          Alcotest.test_case "bulk load empty" `Quick test_bptree_bulk_load_empty;
          Alcotest.test_case "oversized entry rejected" `Quick
            test_bptree_oversized_entry_rejected;
          Alcotest.test_case "persistence" `Quick test_bptree_persistence;
          qtest prop_bptree_model;
          Alcotest.test_case "split never overflows a page" `Quick
            test_bptree_split_never_overflows;
          Alcotest.test_case "append split of an exactly full leaf" `Quick
            test_bptree_append_split_exactly_full;
          Alcotest.test_case "middle runs leave full leaves" `Quick
            test_bptree_middle_runs_fill;
          qtest prop_bptree_insert_batch;
          Alcotest.test_case "cursor keeps its snapshot" `Quick
            test_bptree_cursor_snapshot;
          Alcotest.test_case "encoded_size matches the encoding" `Quick
            test_bptree_encoded_size;
          qtest prop_bptree_file_model;
        ] );
      ( "env",
        [
          Alcotest.test_case "tables" `Quick test_env_tables;
          Alcotest.test_case "bad name" `Quick test_env_bad_name;
          Alcotest.test_case "drop" `Quick test_env_drop;
          Alcotest.test_case "compact reclaims space" `Quick
            test_env_compact_reclaims_space;
          Alcotest.test_case "compact missing table" `Quick
            test_env_compact_missing_table_noop;
          Alcotest.test_case "on-disk roundtrip" `Quick test_env_on_disk_roundtrip;
        ] );
    ]
