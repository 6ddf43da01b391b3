(* Durability and integration tests for the persistent query journal:
   framing survives torn tails and corrupt records (the valid prefix is
   always recovered), the query entry point writes exactly one record
   per posed query, and the advisor demonstrably consumes the journaled
   workload after an env reopen. *)

module Journal = Trex_obs.Journal
module Metrics = Trex_obs.Metrics
module Span = Trex_obs.Span
module Env = Trex_storage.Env
module Workload = Trex_selfman.Workload
module Autopilot = Trex_selfman.Autopilot
module Advisor = Trex_selfman.Advisor

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_journal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let counter name = Metrics.value (Metrics.counter name)

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

let mk ?(digest = "00c0ffee") ?(label = "") ?(strategy = "TA") ?(k = 5)
    ?(ms = 1.5) () : Journal.record =
  {
    qid = 0;
    ts = 1700000000.0;
    digest;
    label;
    strategy;
    k;
    wall_ms = ms;
    pages_read = 3;
    cache_hit_ratio = 0.5;
    heap_ops = 7;
    degraded = false;
    fallbacks = 0;
    retried = false;
    spans = [ ("eval.TA", 1.25) ];
  }

(* Byte offset of frame [i] (0-based) given the records as stored:
   8-byte magic, then per frame a 8-byte header plus the JSON payload. *)
let frame_offset stored i =
  let payload_len r =
    String.length (Trex_obs.Json.to_string (Journal.record_to_json r))
  in
  List.fold_left
    (fun acc r -> acc + 8 + payload_len r)
    8
    (List.filteri (fun j _ -> j < i) stored)

(* ---- codec ---- *)

let test_record_json_roundtrip () =
  let r =
    mk ~digest:"deadbeef" ~label:"//sec[about(., x \"y\")]" ~strategy:"Merge"
      ~k:100 ~ms:12.75 ()
  in
  let r = { r with degraded = true; fallbacks = 2; retried = true } in
  match Journal.record_of_json (Trex_obs.Json.parse
      (Trex_obs.Json.to_string (Journal.record_to_json r)))
  with
  | Some r' -> Alcotest.(check bool) "roundtrip" true (r = r')
  | None -> Alcotest.fail "decode failed"

(* Records written before the journal stopped carrying translations
   still read: fields are looked up by key. *)
let test_older_record_reads () =
  let older = {|{"qid":3,"digest":"00c0ffee","label":"//sec[about(., x)]","strategy":"TA","k":5,"sids":[1,2],"terms":["alpha"]}|} in
  match Journal.record_of_json (Trex_obs.Json.parse older) with
  | Some r ->
      check Alcotest.string "label" "//sec[about(., x)]" r.Journal.label;
      check Alcotest.int "k" 5 r.Journal.k
  | None -> Alcotest.fail "an older record did not decode"

let test_digest_stable () =
  check Alcotest.string "stable digest" (Journal.digest_of "abc")
    (Journal.digest_of "abc");
  Alcotest.(check bool) "distinct inputs differ" true
    (Journal.digest_of "abc" <> Journal.digest_of "abd");
  check Alcotest.int "8 hex chars" 8 (String.length (Journal.digest_of "abc"))

(* ---- lifecycle ---- *)

let test_append_reopen_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "j.qj" in
  let j = Journal.open_file path in
  let r1 = Journal.append j (mk ~digest:"aaaaaaaa" ()) in
  let r2 = Journal.append j (mk ~digest:"bbbbbbbb" ~strategy:"ERA" ()) in
  check Alcotest.int "qids sequence" 1 (r2.Journal.qid - r1.Journal.qid);
  check Alcotest.int "length" 2 (Journal.length j);
  Journal.close j;
  let j2 = Journal.open_file path in
  let rs = Journal.records j2 in
  check Alcotest.int "reopened length" 2 (List.length rs);
  Alcotest.(check bool) "records identical" true (rs = [ r1; r2 ]);
  (* Appending after reopen continues the qid sequence. *)
  let r3 = Journal.append j2 (mk ~digest:"cccccccc" ()) in
  check Alcotest.int "qid continues" (r2.Journal.qid + 1) r3.Journal.qid;
  Journal.close j2

let test_in_memory_journal () =
  let j = Journal.in_memory () in
  ignore (Journal.append j (mk ()));
  check Alcotest.int "held" 1 (Journal.length j);
  Alcotest.(check bool) "no path" true (Journal.path j = None);
  Journal.close j

(* ---- torn tails ---- *)

(* Truncate the file at every byte position inside the final frame; each
   time, reopen must recover exactly the first two records, never raise,
   and the journal must accept appends afterwards. *)
let test_torn_tail_matrix () =
  let dir = temp_dir () in
  let mk_journal path =
    let j = Journal.open_file path in
    let stored =
      List.map
        (fun d -> Journal.append j (mk ~digest:d ()))
        [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc" ]
    in
    Journal.close j;
    (stored, file_length path)
  in
  let probe = Filename.concat dir "probe.qj" in
  let stored, full = mk_journal probe in
  let last_start = frame_offset stored 2 in
  Sys.remove probe;
  for cut = last_start + 1 to full - 1 do
    let path = Filename.concat dir (Printf.sprintf "torn-%d.qj" cut) in
    let stored', _ = mk_journal path in
    Unix.truncate path cut;
    let torn0 = counter "journal.torn_tails" in
    let j = Journal.open_file path in
    check Alcotest.int
      (Printf.sprintf "cut at %d keeps the valid prefix" cut)
      2 (Journal.length j);
    Alcotest.(check bool) "prefix intact" true
      (Journal.records j = List.filteri (fun i _ -> i < 2) stored');
    check Alcotest.int "torn tail counted" (torn0 + 1)
      (counter "journal.torn_tails");
    (* The tail was truncated away: the file ends at the valid prefix
       and appending resumes cleanly. *)
    check Alcotest.int "file truncated to prefix" last_start (file_length path);
    ignore (Journal.append j (mk ~digest:"dddddddd" ()));
    Journal.close j;
    let j2 = Journal.open_file path in
    check Alcotest.int "append after repair survives" 3 (Journal.length j2);
    Journal.close j2
  done

(* A frame decapitated at the length field itself (cut inside the 8-byte
   header) is also a torn tail. *)
let test_torn_header () =
  let dir = temp_dir () in
  let path = Filename.concat dir "j.qj" in
  let j = Journal.open_file path in
  let stored = List.map (fun d -> Journal.append j (mk ~digest:d ())) [ "aaaaaaaa"; "bbbbbbbb" ] in
  Journal.close j;
  Unix.truncate path (frame_offset stored 1 + 3);
  let j2 = Journal.open_file path in
  check Alcotest.int "one record left" 1 (Journal.length j2);
  Journal.close j2

(* ---- corrupt records ---- *)

let test_corrupt_record_skipped () =
  let dir = temp_dir () in
  let path = Filename.concat dir "j.qj" in
  let j = Journal.open_file path in
  let stored =
    List.map
      (fun d -> Journal.append j (mk ~digest:d ()))
      [ "aaaaaaaa"; "bbbbbbbb"; "cccccccc" ]
  in
  Journal.close j;
  (* Flip a payload bit in the *middle* record: its CRC no longer
     matches, so it is skipped — but the records on both sides are
     served, because framing resynchronizes on the length fields. *)
  flip_bit_in_file path ~off:(frame_offset stored 1 + 8 + 5) ~bit:3;
  let corrupt0 = counter "journal.corrupt_records" in
  let j2 = Journal.open_file path in
  check Alcotest.int "corrupt counted" (corrupt0 + 1)
    (counter "journal.corrupt_records");
  check Alcotest.int "two survivors" 2 (Journal.length j2);
  Alcotest.(check bool) "first and last survive" true
    (List.map (fun (r : Journal.record) -> r.Journal.digest) (Journal.records j2)
    = [ "aaaaaaaa"; "cccccccc" ]);
  Journal.close j2

let test_corrupt_length_field_truncates () =
  (* A bit flip in a length field makes the rest of the file
     unframeable; everything before it must still be served. *)
  let dir = temp_dir () in
  let path = Filename.concat dir "j.qj" in
  let j = Journal.open_file path in
  let stored =
    List.map (fun d -> Journal.append j (mk ~digest:d ())) [ "aaaaaaaa"; "bbbbbbbb" ]
  in
  Journal.close j;
  (* bit 30 of the length word makes it ~1 GiB: implausible. *)
  flip_bit_in_file path ~off:(frame_offset stored 1 + 3) ~bit:6;
  let j2 = Journal.open_file path in
  check Alcotest.int "valid prefix only" 1 (Journal.length j2);
  Journal.close j2

let test_foreign_file_reset () =
  let dir = temp_dir () in
  let path = Filename.concat dir "j.qj" in
  let oc = open_out path in
  output_string oc "this is not a journal at all";
  close_out oc;
  let j = Journal.open_file path in
  check Alcotest.int "no records" 0 (Journal.length j);
  ignore (Journal.append j (mk ()));
  Journal.close j;
  let j2 = Journal.open_file path in
  check Alcotest.int "usable after reset" 1 (Journal.length j2);
  Journal.close j2

(* ---- env integration ---- *)

let test_env_sweeps_journal_on_open () =
  let dir = temp_dir () in
  let env = Env.on_disk dir in
  Alcotest.(check bool) "no journal yet" false (Env.has_journal env);
  let j = Env.journal env in
  ignore (Journal.append j (mk ()));
  ignore (Journal.append j (mk ~digest:"bbbbbbbb" ()));
  Env.close env;
  let path = Option.get (Env.journal_path env) in
  (* Tear the tail as a crash would, then reopen the *env*: the sweep
     happens at Env.on_disk, before anyone touches the journal. *)
  Unix.truncate path (file_length path - 2);
  let torn0 = counter "journal.torn_tails" in
  let env2 = Env.on_disk dir in
  check Alcotest.int "swept at env open" (torn0 + 1)
    (counter "journal.torn_tails");
  check Alcotest.int "valid prefix served" 1 (Journal.length (Env.journal env2));
  Env.close env2

(* ---- one record per posed query ---- *)

let with_journaling f =
  Journal.set_enabled true;
  Fun.protect ~finally:(fun () -> Journal.set_enabled false) f

let build_engine ~env =
  let coll = Trex_corpus.Gen.ieee ~doc_count:20 ~seed:17 () in
  Trex.build ~env ~alias:coll.alias (coll.docs ())

(* Trex.query is the entry point, so it writes the one record: a plain
   run, and a forced TA over damaged RPLs that fails over to Merge —
   the failover attempt is part of the same posed query, so it still
   writes one record, carrying the failover count. *)
let test_one_record_per_query () =
  let dir = temp_dir () in
  let env = Env.on_disk dir in
  let engine = build_engine ~env in
  let j = Env.journal env in
  let q = "//sec[about(., information retrieval)]" in
  with_journaling (fun () ->
      ignore (Trex.query engine ~k:5 q);
      check Alcotest.int "one record for a plain query" 1 (Journal.length j);
      let r = List.hd (Journal.records j) in
      Alcotest.(check bool) "label carried" true (r.Journal.label = q);
      check Alcotest.string "digest is of the label" (Journal.digest_of q)
        r.Journal.digest;
      check Alcotest.string "record names the method" "ERA" r.Journal.strategy;
      check Alcotest.int "no fallback" 0 r.Journal.fallbacks);
  ignore (Trex.materialize engine q);
  Env.close env;
  (* Damage every page of the RPL table, as the resilience tests do: a
     forced TA hits a checksum failure and fails over to Merge. *)
  let rpls = Filename.concat dir "rpls.tbl" in
  let off = ref (128 + 17) in
  while !off < file_length rpls do
    flip_bit_in_file rpls ~off:!off ~bit:3;
    off := !off + 8192 + 4
  done;
  let env = Env.on_disk dir in
  let engine = Trex.attach ~env () in
  let j = Env.journal env in
  with_journaling (fun () ->
      let o = Trex.query engine ~k:5 ~method_:Trex_topk.Strategy.Ta_method q in
      check Alcotest.int "TA failed over once" 1 (List.length o.Trex.fallbacks);
      check Alcotest.string "Merge answered" "Merge"
        (Trex_topk.Strategy.method_to_string
           o.Trex.strategy.Trex_topk.Strategy.method_used);
      check Alcotest.int "failover run writes one record" 2 (Journal.length j);
      let r = List.nth (Journal.records j) 1 in
      check Alcotest.int "record carries the fallback" 1 r.Journal.fallbacks;
      check Alcotest.string "record names the answering method" "Merge"
        r.Journal.strategy);
  Env.close env

(* The advisor's timing runs and the autopilot's replanning evaluate
   queries too, but nobody posed them: they write no record. *)
let test_self_management_writes_no_record () =
  let env = Env.in_memory () in
  let engine = build_engine ~env in
  let j = Env.journal env in
  let qs =
    [
      "//sec[about(., information retrieval)]";
      "//article[about(., music)]";
      "//sec[about(., information retrieval)]";
      "//article[about(., music)]";
      "//sec[about(., information retrieval)]";
    ]
  in
  with_journaling (fun () ->
      List.iter (fun q -> ignore (Trex.query engine ~k:5 q)) qs;
      check Alcotest.int "one record per posed query" 5 (Journal.length j);
      let workload =
        Workload.of_unweighted
          [
            ("ir", "//sec[about(., information retrieval)]", 5);
            ("music", "//article[about(., music)]", 5);
          ]
      in
      ignore (Trex.advise engine ~workload ~budget:max_int ~runs:1 ());
      check Alcotest.int "advise writes nothing" 5 (Journal.length j);
      let pilot =
        Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
          ~budget:max_int ~min_observations:5 ~drift_threshold:0.3 ()
      in
      ignore (Autopilot.absorb_journal pilot (Journal.records j));
      (match Autopilot.maybe_replan pilot with
      | Autopilot.Replanned _ -> ()
      | v ->
          Alcotest.failf "expected Replanned, got %s"
            (Format.asprintf "%a" Autopilot.pp_verdict v));
      check Alcotest.int "maybe_replan writes nothing" 5 (Journal.length j));
  Env.close env

let test_spans_summarized_when_tracing () =
  let env = Env.in_memory () in
  let engine = build_engine ~env in
  let j = Env.journal env in
  with_journaling (fun () ->
      Span.reset ();
      Span.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Span.set_enabled false)
        (fun () ->
          ignore (Trex.query engine ~k:5 "//sec[about(., information retrieval)]"));
      match Journal.records j with
      | [ r ] ->
          Alcotest.(check bool) "span summary of the query's root" true
            (List.exists
               (fun (p, _) -> String.starts_with ~prefix:"query/eval." p)
               r.Journal.spans)
      | rs -> Alcotest.failf "expected one record, got %d" (List.length rs))

(* ---- the advisor eats the journal ---- *)

let test_journal_drives_advisor () =
  let dir = temp_dir () in
  let ir = "//sec[about(., information retrieval)]" in
  let mu = "//article[about(., music)]" in
  (* Serve a skewed mix with journaling on, then close the env. *)
  let env = Env.on_disk dir in
  let engine = build_engine ~env in
  with_journaling (fun () ->
      for _ = 1 to 9 do
        ignore (Trex.query engine ~k:5 ir)
      done;
      ignore (Trex.query engine ~k:5 mu));
  Env.close env;
  (* Reopen: the journal is the only survivor of the process "restart". *)
  let env2 = Env.on_disk dir in
  let records = Journal.records (Env.journal env2) in
  check Alcotest.int "ten journaled queries" 10 (List.length records);
  (* Replay into a fresh autopilot and replan: the plan must support the
     journal's heavy hitter. *)
  let engine2 = Trex.attach ~env:env2 () in
  let pilot =
    Autopilot.create (Trex.index engine2) ~scoring:(Trex.scoring engine2)
      ~budget:max_int ~min_observations:10 ~drift_threshold:0.3 ()
  in
  check Alcotest.int "absorbed all" 10 (Autopilot.absorb_journal pilot records);
  let freq_of nexi =
    match List.assoc_opt (Journal.digest_of nexi) (Autopilot.observed_frequencies pilot) with
    | Some f -> f
    | None -> Alcotest.failf "query %s missing from observed workload" nexi
  in
  check (Alcotest.float 1e-9) "ir frequency" 0.9 (freq_of ir);
  check (Alcotest.float 1e-9) "music frequency" 0.1 (freq_of mu);
  (match Autopilot.maybe_replan pilot with
  | Autopilot.Replanned { plan; _ } ->
      Alcotest.(check bool) "heavy query indexed" true
        (List.assoc (Journal.digest_of ir) plan.Advisor.decisions
        <> Advisor.No_index)
  | v ->
      Alcotest.failf "expected Replanned, got %s"
        (Format.asprintf "%a" Autopilot.pp_verdict v));
  Env.close env2

(* A workload query is its NEXI text. A document added after the
   queries were journaled gives the query new extents; the autopilot
   translates the label when it plans, so the plan covers them and the
   query runs on its lists. A label that does not parse is skipped. *)
let test_plan_translates_at_plan_time () =
  let env = Env.in_memory () in
  let coll = Trex_corpus.Gen.ieee ~doc_count:20 ~seed:42 () in
  let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
  let q = "//article//sec[about(., information retrieval)]" in
  let translation () = Trex.translate engine (Trex.parse engine q) in
  let sids () = Trex_nexi.Translate.all_sids (translation ()) in
  with_journaling (fun () ->
      for _ = 1 to 5 do
        ignore (Trex.query engine ~k:5 q)
      done);
  let journaled = List.length (sids ()) in
  let xml =
    "<books><journal><article><fm><sec>information retrieval</sec></fm><bdy><p><sec>\
     information retrieval ranking</sec></p></bdy><bm><sec>retrieval of \
     information</sec></bm><sec>information retrieval systems</sec></article></journal></books>"
  in
  ignore (Trex.add_document engine ~name:"new.xml" ~xml);
  check Alcotest.int "the document adds four extents" (journaled + 4) (List.length (sids ()));
  let records = Journal.records (Env.journal env) @ [ mk ~label:"//sec[" () ] in
  let pilot =
    Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
      ~budget:max_int ~min_observations:5 ()
  in
  check Alcotest.int "the unparsable label is skipped" 5
    (Autopilot.absorb_journal pilot records);
  let planned =
    match Autopilot.maybe_replan pilot with
    | Autopilot.Replanned { plan; _ } -> (
        match List.assoc (Journal.digest_of q) plan.Advisor.decisions with
        | Advisor.Use_rpl -> Trex_topk.Strategy.Ta_method
        | Advisor.Use_erpl -> Trex_topk.Strategy.Merge_method
        | Advisor.No_index -> Alcotest.fail "the query was not indexed")
    | v ->
        Alcotest.failf "expected Replanned, got %s"
          (Format.asprintf "%a" Autopilot.pp_verdict v)
  in
  let t = translation () in
  Alcotest.(check bool) "the planned method is available" true
    (List.mem planned
       (Trex_topk.Strategy.available (Trex.index engine)
          ~sids:(Trex_nexi.Translate.all_sids t) ~terms:(Trex_nexi.Translate.all_terms t)));
  Alcotest.(check bool) "the query runs on its lists, not ERA" true
    ((Trex.query engine ~k:5 q).Trex.strategy.Trex_topk.Strategy.method_used
    <> Trex_topk.Strategy.Era_method);
  Env.close env

let () =
  Alcotest.run "trex_journal"
    [
      ( "codec",
        [
          Alcotest.test_case "record json roundtrip" `Quick
            test_record_json_roundtrip;
          Alcotest.test_case "digest stable" `Quick test_digest_stable;
          Alcotest.test_case "older record reads" `Quick test_older_record_reads;
        ] );
      ( "durability",
        [
          Alcotest.test_case "append/reopen roundtrip" `Quick
            test_append_reopen_roundtrip;
          Alcotest.test_case "in-memory journal" `Quick test_in_memory_journal;
          Alcotest.test_case "torn tail matrix" `Quick test_torn_tail_matrix;
          Alcotest.test_case "torn header" `Quick test_torn_header;
          Alcotest.test_case "corrupt record skipped" `Quick
            test_corrupt_record_skipped;
          Alcotest.test_case "corrupt length truncates" `Quick
            test_corrupt_length_field_truncates;
          Alcotest.test_case "foreign file reset" `Quick test_foreign_file_reset;
          Alcotest.test_case "env sweeps journal on open" `Quick
            test_env_sweeps_journal_on_open;
        ] );
      ( "integration",
        [
          Alcotest.test_case "one record per query" `Quick
            test_one_record_per_query;
          Alcotest.test_case "self-management writes no record" `Quick
            test_self_management_writes_no_record;
          Alcotest.test_case "spans summarized" `Quick
            test_spans_summarized_when_tracing;
          Alcotest.test_case "journal drives advisor" `Quick
            test_journal_drives_advisor;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "plans the current translation" `Quick
            test_plan_translates_at_plan_time;
        ] );
    ]
