(* Crash-matrix and corruption-detection tests for the storage
   substrate.

   Strategy: run a deterministic workload once against a clean pager to
   learn its raw-write sequence length, then re-run it once per crash
   point with a fault plan that kills the pager at exactly that write.
   After every simulated crash the file is reopened with recovery and
   must present either a verified-consistent tree or a typed
   [Pager.Corruption] — never fabricated data. *)

module Pager = Trex_storage.Pager
module Bptree = Trex_storage.Bptree
module Env = Trex_storage.Env

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_crash" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let key i = Printf.sprintf "key-%06d" i
let value i = Printf.sprintf "val-%d" i
let entries n = List.init n (fun i -> (key i, value i))

let raises_corruption f =
  try
    ignore (f ());
    false
  with Pager.Corruption _ -> true

let flip_bit_in_file path ~off ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit land 7))));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let file_length path = (Unix.stat path).Unix.st_size

(* Header region of the pager file format: two 64-byte slots. *)
let header_size = 128

(* Reopen a crashed pager file and classify the surviving state.
   [known] gives the expected value for any key the tree may contain;
   any other value for a key is fabricated data and fails the test. *)
type outcome = Detected | Empty | Sound of int

let reopen_and_classify ?(known = fun _ -> None) path =
  match Pager.open_with_recovery path with
  | exception Pager.Corruption _ -> Detected
  | p, _recovery ->
      let outcome =
        if Pager.verify_checksums p <> [] then Detected
        else if Pager.get_root p < 0 then Empty
        else
          match Bptree.attach p with
          | exception Pager.Corruption _ -> Detected
          | t ->
              let r = Bptree.verify t in
              if r.Bptree.problems <> [] then Detected
              else begin
                let rows = ref 0 in
                Bptree.iter t (fun k v ->
                    incr rows;
                    match known k with
                    | Some expected ->
                        check Alcotest.string ("value of " ^ k) expected v
                    | None ->
                        Alcotest.failf "fabricated key %S after recovery" k);
                Sound !rows
              end
      in
      Pager.abort p;
      outcome

(* ---- crash matrix: bulk load (pages, tail, final header commit) ---- *)

let known_of n k =
  (* key-%06d -> its deterministic value, None for foreign keys *)
  if String.length k = 10 && String.sub k 0 4 = "key-" then
    match int_of_string_opt (String.sub k 4 6) with
    | Some i when i >= 0 && i < n -> Some (value i)
    | _ -> None
  else None

let test_crash_matrix_bulk_load () =
  let dir = temp_dir () in
  let n_entries = 300 in
  (* Clean run: learn the full write sequence length. *)
  let clean = Filename.concat dir "clean.tbl" in
  let p = Pager.create_file ~page_size:512 clean in
  let after_create = Pager.io_seq p in
  ignore (Bptree.bulk_load p (List.to_seq (entries n_entries)));
  let total = Pager.io_seq p in
  Pager.close p;
  Alcotest.(check bool) "workload performs writes" true (total > after_create + 4);
  let sound = ref 0 and empty = ref 0 and detected = ref 0 in
  for n = after_create to total do
    let path = Filename.concat dir (Printf.sprintf "crash-%d.tbl" n) in
    let p =
      Pager.create_faulty
        ~faults:[ Pager.Crash_after_writes n ]
        (Pager.create_file ~page_size:512 path)
    in
    let crashed =
      match Bptree.bulk_load p (List.to_seq (entries n_entries)) with
      | _ -> false
      | exception Pager.Injected_crash _ -> true
    in
    Pager.abort p;
    check Alcotest.bool
      (Printf.sprintf "crash point %d fires iff before the end" n)
      (n < total) crashed;
    (match reopen_and_classify ~known:(known_of n_entries) path with
    | Detected -> incr detected
    | Empty -> incr empty
    | Sound rows ->
        incr sound;
        (* bulk_load commits exactly once, so a sound tree is complete *)
        check Alcotest.int
          (Printf.sprintf "crash point %d: all-or-nothing" n)
          n_entries rows)
  done;
  (* The matrix must actually exercise all three outcomes. *)
  Alcotest.(check bool) "some crash points recover to empty" true (!empty > 0);
  Alcotest.(check bool) "the no-crash run is sound" true (!sound >= 1)

(* ---- crash matrix: incremental inserts with durable commits ---- *)

let test_crash_matrix_inserts () =
  let dir = temp_dir () in
  let n_entries = 240 in
  let batch = 60 in
  let workload p =
    let t = Bptree.create p in
    for b = 0 to (n_entries / batch) - 1 do
      for i = 0 to batch - 1 do
        let j = (b * batch) + i in
        Bptree.insert t ~key:(key j) ~value:(value j)
      done;
      (* Durable commit point after every batch. *)
      Pager.flush ~sync:true p
    done
  in
  let clean = Filename.concat dir "clean.tbl" in
  (* A tiny cache forces dirty-page evictions between commit points, so
     crash points also land inside half-written batches. *)
  let p = Pager.create_file ~page_size:512 ~cache_pages:8 clean in
  let after_create = Pager.io_seq p in
  workload p;
  let total = Pager.io_seq p in
  Pager.close p;
  let sound = ref 0 and detected = ref 0 in
  for n = after_create to total do
    let path = Filename.concat dir (Printf.sprintf "crash-%d.tbl" n) in
    let p =
      Pager.create_faulty
        ~faults:[ Pager.Crash_after_writes n ]
        (Pager.create_file ~page_size:512 ~cache_pages:8 path)
    in
    (match workload p with
    | () -> ()
    | exception Pager.Injected_crash _ -> ());
    Pager.abort p;
    match reopen_and_classify ~known:(known_of n_entries) path with
    | Detected -> incr detected
    | Empty -> ()
    | Sound _ -> incr sound
    (* reopen_and_classify already asserted no fabricated keys/values *)
  done;
  Alcotest.(check bool) "matrix reaches sound recoveries" true (!sound > 0)

(* ---- dirty pages the committed header covers stay in the cache ---- *)

(* With an 8-page cache, inserts after a durable flush dirty far more
   committed pages than the cache holds. None may be written back
   before the next header commit: a crash (abort) must reopen to
   exactly the flushed tree. *)
let test_pinned_pages_survive_crash () =
  let dir = temp_dir () in
  for seed = 0 to 40 do
    let path = Filename.concat dir (Printf.sprintf "pinned-%d.tbl" seed) in
    let order = Array.init 600 Fun.id in
    Trex_util.Prng.shuffle (Trex_util.Prng.create seed) order;
    let p = Pager.create_file ~page_size:512 ~cache_pages:8 path in
    let t = Bptree.create p in
    let put i = Bptree.insert t ~key:(key i) ~value:(value i) in
    Array.iter put (Array.sub order 0 300);
    Pager.flush ~sync:true p;
    Array.iter put (Array.sub order 300 (100 + (seed * 5)));
    Alcotest.(check bool) "some committed pages are pinned" true (Pager.pinned_pages p > 0);
    Pager.abort p;
    let p = Pager.open_file path in
    let t = Bptree.attach p in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "seed %d: verify clean" seed)
      [] (Bptree.verify t).Bptree.problems;
    Array.iteri
      (fun n i ->
        if n < 300 then
          check (Alcotest.option Alcotest.string)
            (Printf.sprintf "seed %d: durable %s" seed (key i))
            (Some (value i)) (Bptree.find t (key i)))
      order;
    check Alcotest.int (Printf.sprintf "seed %d: only the durable keys" seed) 300 (Bptree.length t);
    Pager.close p
  done

(* ---- torn header write: epoch fallback ---- *)

let test_torn_header_falls_back () =
  let dir = temp_dir () in
  let path = Filename.concat dir "torn.tbl" in
  let p = Pager.create_file ~page_size:512 path in
  let t = Bptree.create p in
  for i = 0 to 49 do
    Bptree.insert t ~key:(key i) ~value:(value i)
  done;
  Pager.flush ~sync:true p;
  (* Nothing is dirty now, so the very next raw write is the header
     commit of the next flush: tear it mid-slot. The tear must keep the
     new epoch bytes (offset 8..15) but lose the slot CRC (offset 60),
     otherwise the surviving prefix equals the slot's previous, still
     valid content — which is just "crashed before the header write". *)
  ignore
    (Pager.create_faulty
       ~faults:
         [ Pager.Torn_write { after_writes = Pager.io_seq p; keep_bytes = 32 } ]
       p);
  (match Pager.flush p with
  | () -> Alcotest.fail "expected injected crash"
  | exception Pager.Injected_crash _ -> ());
  Pager.abort p;
  Alcotest.(check bool) "strict open refuses the torn header" true
    (raises_corruption (fun () -> Pager.open_file path));
  let p2, recovery = Pager.open_with_recovery path in
  Alcotest.(check bool) "recovery fell back" true recovery.Pager.recovered;
  check Alcotest.int "recoveries counter" 1 (Pager.stats p2).Pager.recoveries;
  let t2 = Bptree.attach p2 in
  let r = Bptree.verify t2 in
  check (Alcotest.list Alcotest.string) "verify clean" [] r.Bptree.problems;
  check Alcotest.int "previous commit intact" 50 (Bptree.length t2);
  check
    (Alcotest.option Alcotest.string)
    "row readable" (Some (value 17))
    (Bptree.find t2 (key 17));
  (* The next commit reclaims the damaged slot: after it, strict opens
     work again. *)
  Pager.close p2;
  let p3 = Pager.open_file path in
  check Alcotest.int "healed" 50 (Bptree.length (Bptree.attach p3));
  Pager.close p3

(* ---- bit flips: pages and header slots ---- *)

let build_table path =
  let p = Pager.create_file ~page_size:512 path in
  ignore (Bptree.bulk_load p (List.to_seq (entries 200)));
  Pager.close p

let test_page_bit_flip_detected () =
  let dir = temp_dir () in
  let path = Filename.concat dir "flip.tbl" in
  build_table path;
  (* Inside page 0 (the first leaf). *)
  flip_bit_in_file path ~off:(header_size + 17) ~bit:3;
  let p, recovery = Pager.open_with_recovery path in
  Alcotest.(check bool) "header unaffected" false recovery.Pager.recovered;
  Alcotest.(check bool) "sweep reports the page" true
    (Pager.verify_checksums p <> []);
  Alcotest.(check bool) "failure counter visible" true
    ((Pager.stats p).Pager.checksum_failures > 0);
  (* A read that touches the damaged page raises, never returns bytes. *)
  let t = Bptree.attach p in
  Alcotest.(check bool) "lookup raises typed Corruption" true
    (raises_corruption (fun () -> Bptree.find t (key 0)));
  Pager.abort p

let test_header_bit_flip_either_slot () =
  let dir = temp_dir () in
  List.iter
    (fun (label, slot_off) ->
      let path = Filename.concat dir (label ^ ".tbl") in
      build_table path;
      flip_bit_in_file path ~off:(slot_off + 20) ~bit:6;
      Alcotest.(check bool)
        (label ^ ": strict open refuses")
        true
        (raises_corruption (fun () -> Pager.open_file path));
      let p, recovery = Pager.open_with_recovery path in
      Alcotest.(check bool) (label ^ ": recovered") true recovery.Pager.recovered;
      let t = Bptree.attach p in
      check Alcotest.int (label ^ ": rows intact") 200 (Bptree.length t);
      check
        (Alcotest.list Alcotest.string)
        (label ^ ": verify clean")
        [] (Bptree.verify t).Bptree.problems;
      Pager.abort p)
    [ ("slot0", 0); ("slot1", 64) ]

let prop_page_bit_flip_always_detected =
  let open QCheck in
  Test.make ~name:"any page-region bit flip is detected, never served"
    ~count:40
    (pair small_nat (int_bound 7))
    (fun (off_seed, bit) ->
      let dir = temp_dir () in
      let path = Filename.concat dir "prop.tbl" in
      let p = Pager.create_file ~page_size:256 path in
      ignore (Bptree.bulk_load p (List.to_seq (entries 80)));
      Pager.close p;
      let len = file_length path in
      let off = header_size + ((off_seed * 7919) mod (len - header_size)) in
      flip_bit_in_file path ~off ~bit;
      let p, _ = Pager.open_with_recovery path in
      let sweep = Pager.verify_checksums p in
      let counted = (Pager.stats p).Pager.checksum_failures > 0 in
      Pager.abort p;
      sweep <> [] && counted)

(* ---- environment-level recovery ---- *)

let test_env_verify_clean_then_corrupt () =
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  let a = Env.table env "alpha" and b = Env.table env "beta" in
  for i = 0 to 99 do
    Bptree.insert a ~key:(key i) ~value:(value i);
    Bptree.insert b ~key:(key i) ~value:(value (i * 2))
  done;
  Env.flush ~sync:true env;
  let reports = Env.verify env in
  check Alcotest.int "two tables" 2 (List.length reports);
  List.iter
    (fun (r : Env.table_report) ->
      Alcotest.(check bool) (r.Env.table ^ " ok") true r.Env.ok;
      Alcotest.(check bool) (r.Env.table ^ " rows") true (r.Env.entries = 100))
    reports;
  List.iter
    (fun (name, (s : Pager.stats)) ->
      check Alcotest.int (name ^ " no checksum failures") 0 s.Pager.checksum_failures;
      check Alcotest.int (name ^ " no recoveries") 0 s.Pager.recoveries)
    (Env.io_stats env);
  Env.close env;
  (* Corrupt one table; verify must localize the damage. *)
  flip_bit_in_file (Filename.concat dir "beta.tbl") ~off:(header_size + 40) ~bit:1;
  let env2 = Env.on_disk ~page_size:512 dir in
  let reports = Env.verify env2 in
  List.iter
    (fun (r : Env.table_report) ->
      check Alcotest.bool (r.Env.table ^ " status") (r.Env.table = "alpha")
        r.Env.ok)
    reports;
  let failures =
    List.fold_left
      (fun acc (_, (s : Pager.stats)) -> acc + s.Pager.checksum_failures)
      0 (Env.io_stats env2)
  in
  Alcotest.(check bool) "io_stats shows checksum failures" true (failures > 0);
  Env.close env2

let test_env_compact_tmp_leftover_cleaned () =
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  let t = Env.table env "fat" in
  for i = 0 to 99 do
    Bptree.insert t ~key:(key i) ~value:(value i)
  done;
  Env.close env;
  (* Simulate a compaction that crashed before its atomic rename. *)
  let tmp = Filename.concat dir "fat.compact-tmp.tbl" in
  let oc = open_out tmp in
  output_string oc "partial compaction temp, never renamed";
  close_out oc;
  let env2 = Env.on_disk ~page_size:512 dir in
  Alcotest.(check bool) "leftover removed" false (Sys.file_exists tmp);
  check (Alcotest.list Alcotest.string) "only the real table" [ "fat" ]
    (Env.table_names env2);
  check Alcotest.int "table intact" 100 (Bptree.length (Env.table env2 "fat"));
  Env.close env2

let test_env_compact_valid_tmp_swept () =
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  let t = Env.table env "fat" in
  List.iter (fun (k, v) -> Bptree.insert t ~key:k ~value:v) (entries 100);
  Env.close env;
  (* A compaction that crashed after fully building (and syncing) its
     temp file but before the rename: the temp is a perfectly valid
     pager file, and must still be swept — only the rename publishes a
     compaction, so the original stays the truth. *)
  let tmp = Filename.concat dir "fat.compact-tmp.tbl" in
  let p = Pager.create_file ~page_size:512 tmp in
  ignore (Bptree.bulk_load p (List.to_seq (entries 100)));
  Pager.close p;
  let env2 = Env.on_disk ~page_size:512 dir in
  Alcotest.(check bool) "valid temp swept" false (Sys.file_exists tmp);
  check (Alcotest.list Alcotest.string) "only the real table" [ "fat" ]
    (Env.table_names env2);
  check Alcotest.int "table intact" 100 (Bptree.length (Env.table env2 "fat"));
  Env.close env2

(* Crash matrix over the compaction window itself: the fault plan
   targets the temp-file pager inside [Env.compact_table], so every raw
   write between "temp created" and "temp durable" becomes a crash
   point. Whatever the point, reopening must sweep the temp and present
   the original table, complete and unfabricated. *)
let test_crash_matrix_compact_table () =
  let dir = temp_dir () in
  let n_entries = 150 in
  let build sub =
    Unix.mkdir sub 0o755;
    let env = Env.on_disk ~page_size:512 sub in
    let t = Env.table env "fat" in
    List.iter (fun (k, v) -> Bptree.insert t ~key:k ~value:v) (entries n_entries);
    Env.flush ~sync:true env;
    env
  in
  let crash_points = ref 0 and finished = ref false and n = ref 0 in
  while (not !finished) && !n < 5000 do
    let sub = Filename.concat dir (Printf.sprintf "run-%d" !n) in
    let env = build sub in
    (match Env.compact_table ~faults:[ Pager.Crash_after_writes !n ] env "fat" with
    | () -> finished := true
    | exception Pager.Injected_crash _ -> incr crash_points);
    Env.close env;
    let env2 = Env.on_disk ~page_size:512 sub in
    Alcotest.(check bool)
      (Printf.sprintf "crash point %d: temp swept" !n)
      false
      (Sys.file_exists (Filename.concat sub "fat.compact-tmp.tbl"));
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "crash point %d: only the real table" !n)
      [ "fat" ] (Env.table_names env2);
    let t = Env.table env2 "fat" in
    check Alcotest.int
      (Printf.sprintf "crash point %d: rows intact" !n)
      n_entries (Bptree.length t);
    Bptree.iter t (fun k v ->
        match known_of n_entries k with
        | Some expected -> check Alcotest.string ("value of " ^ k) expected v
        | None -> Alcotest.failf "fabricated key %S after compaction crash" k);
    Env.close env2;
    incr n
  done;
  Alcotest.(check bool) "the last run compacts cleanly" true !finished;
  Alcotest.(check bool) "matrix exercised crash points" true (!crash_points > 3)

let test_env_open_with_recovery_reinits_uncommitted () =
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  let t = Env.table env "good" in
  Bptree.insert t ~key:"k" ~value:"v";
  Env.close env;
  (* A table whose creating commit never happened: header says root -1. *)
  Pager.abort (Pager.create_file ~page_size:512 (Filename.concat dir "lost.tbl"));
  let env2, reports = Env.open_with_recovery ~page_size:512 dir in
  let lost = List.find (fun (r : Env.table_report) -> r.Env.table = "lost") reports in
  Alcotest.(check bool) "reinit reported as recovery" true lost.Env.recovered;
  Alcotest.(check bool) "reinit is ok" true lost.Env.ok;
  let good = List.find (fun (r : Env.table_report) -> r.Env.table = "good") reports in
  Alcotest.(check bool) "good table ok" true good.Env.ok;
  Alcotest.(check bool) "good table not recovered" false good.Env.recovered;
  check (Alcotest.option Alcotest.string) "good data intact" (Some "v")
    (Bptree.find (Env.table env2 "good") "k");
  check Alcotest.int "lost table reinitialized empty" 0
    (Bptree.length (Env.table env2 "lost"));
  Env.close env2

(* ---- engine level: verify, attach and queries after corruption ---- *)

let nexi = "//article//sec[about(., information retrieval)]"

let test_engine_attach_verify () =
  let dir = temp_dir () in
  let coll = Trex_corpus.Gen.ieee ~doc_count:20 () in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
  ignore (Trex.materialize engine nexi);
  let before = Trex.query engine ~k:5 ~method_:Trex.Strategy.Era_method nexi in
  Trex.Env.close env;
  (* The reopened env verifies clean; ERA and TA (over the persisted
     materialized lists) must serve the same answers as before the
     restart. *)
  let corrupt_tables env =
    List.filter_map
      (fun (r : Trex.Env.table_report) -> if r.ok then None else Some r.table)
      (Trex.Env.verify env)
  in
  let env2 = Trex.Env.on_disk dir in
  check (Alcotest.list Alcotest.string) "clean env verifies" [] (corrupt_tables env2);
  let engine2 = Trex.attach ~env:env2 () in
  let era = Trex.query engine2 ~k:5 ~method_:Trex.Strategy.Era_method nexi in
  let ta = Trex.query engine2 ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
  let sig_of answers =
    List.map
      (fun (e : Trex.Answer.entry) ->
        (e.element.Trex.Types.docid, e.element.Trex.Types.endpos))
      answers
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "ERA answers survive restart"
    (sig_of before.strategy.answers)
    (sig_of era.strategy.answers);
  (* TA may break score ties differently; compare score sequences. *)
  let era_top = Trex.Answer.top_k era.strategy.answers 5 in
  check Alcotest.int "TA size" (List.length era_top)
    (List.length ta.strategy.answers);
  List.iter2
    (fun (a : Trex.Answer.entry) (b : Trex.Answer.entry) ->
      check (Alcotest.float 1e-9) "TA score" a.score b.score)
    era_top ta.strategy.answers;
  Trex.Env.close env2;
  (* Corrupt the postings table: verification must name it instead of
     the env ever serving wrong answers unflagged. *)
  flip_bit_in_file (Filename.concat dir "postings.tbl") ~off:(header_size + 99)
    ~bit:5;
  let env3 = Trex.Env.on_disk dir in
  check (Alcotest.list Alcotest.string) "verify names the corrupt table"
    [ "postings" ] (corrupt_tables env3);
  Trex.Env.close env3

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trex_crash"
    [
      ( "crash-matrix",
        [
          Alcotest.test_case "bulk load" `Quick test_crash_matrix_bulk_load;
          Alcotest.test_case "incremental inserts" `Quick
            test_crash_matrix_inserts;
          Alcotest.test_case "torn header falls back" `Quick
            test_torn_header_falls_back;
          Alcotest.test_case "pinned pages survive a crash" `Quick
            test_pinned_pages_survive_crash;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "page bit flip detected" `Quick
            test_page_bit_flip_detected;
          Alcotest.test_case "header bit flip either slot" `Quick
            test_header_bit_flip_either_slot;
          qtest prop_page_bit_flip_always_detected;
        ] );
      ( "env",
        [
          Alcotest.test_case "verify clean then corrupt" `Quick
            test_env_verify_clean_then_corrupt;
          Alcotest.test_case "compact tmp leftover cleaned" `Quick
            test_env_compact_tmp_leftover_cleaned;
          Alcotest.test_case "compact valid tmp swept" `Quick
            test_env_compact_valid_tmp_swept;
          Alcotest.test_case "compact crash matrix" `Quick
            test_crash_matrix_compact_table;
          Alcotest.test_case "recovery reinits uncommitted table" `Quick
            test_env_open_with_recovery_reinits_uncommitted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "attach with verification" `Quick
            test_engine_attach_verify;
        ] );
    ]
