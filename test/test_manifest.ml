(* Crash-matrix tests for the cross-table operation manifest.

   Strategy, in the style of test_crash.ml: run each multi-table
   operation once against a pristine copy of an on-disk index with a
   counting hook to learn its sequence points, then once per point with
   a hook that raises [Pager.Injected_crash] there. After every
   simulated crash the environment is abandoned ([Env.abort]) and
   reopened with recovery; the result must verify clean and answer
   queries exactly as the pre-operation or post-operation index —
   never a mix (no stale-generation list is ever read). A byte-level
   truncation matrix over MANIFEST.mf covers torn commit records the
   hook points cannot reach.

   TREX_SOAK_SEEDS widens the truncation matrix (CI runs 8). *)

module Pager = Trex_storage.Pager
module Bptree = Trex_storage.Bptree
module Env = Trex_storage.Env
module Manifest = Trex_storage.Manifest
module Breaker = Trex_resilience.Breaker
module Metrics = Trex_obs.Metrics
module Rpl = Trex_topk.Rpl
module Index = Trex_invindex.Index

let check = Alcotest.check

let soak_seeds () =
  match Sys.getenv_opt "TREX_SOAK_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let temp_dir () =
  let dir = Filename.temp_file "trex_manifest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec loop () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      loop ()
    end
  in
  loop ();
  close_in ic;
  close_out oc

(* Flat directory copy: env dirs hold only regular files. *)
let copy_dir src dst =
  if Sys.file_exists dst then
    Array.iter (fun f -> Sys.remove (Filename.concat dst f)) (Sys.readdir dst)
  else Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let file_length path = (Unix.stat path).Unix.st_size

let nexi = "//article//sec[about(., information retrieval)]"

let sig_of (o : Trex.outcome) =
  List.map
    (fun (e : Trex.Answer.entry) ->
      (e.element.Trex.Types.docid, e.element.Trex.Types.endpos))
    o.strategy.answers

let sig_testable = Alcotest.(list (pair int int))

let build_collection dir ~docs ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count:docs ~seed () in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
  (env, engine)

let era_sig engine =
  sig_of (Trex.query engine ~k:5 ~method_:Trex.Strategy.Era_method nexi)

(* Every list a catalog advertises must be fully readable: a cursor
   over it drains to the catalog's entry count. Returns the advertised
   lists as (kind, term, sid, entries). *)
let drain_advertised ctx index =
  List.concat_map
    (fun kind ->
      List.map
        (fun (term, sid, entries, _) ->
          let c = Rpl.Cursor.create index kind ~term ~sid in
          let n = ref 0 in
          while Rpl.Cursor.next c <> None do incr n done;
          check Alcotest.int
            (Printf.sprintf "%s: %s list (%s, %d) complete" ctx (Rpl.kind_to_string kind) term
               sid)
            entries !n;
          (kind, term, sid, entries))
        (Rpl.catalog index kind))
    [ Rpl.Rpl; Rpl.Erpl ]

(* The labels a redo-logged list operation passes through, named by
   the op; a crash matrix that saw none of them tested another
   protocol. *)
let check_logged_points ctx op points =
  List.iter
    (fun p ->
      check Alcotest.bool (Printf.sprintf "%s: passes %s" ctx p) true (List.mem p points))
    [ "op:" ^ op ^ ":planned"; "op:" ^ op ^ ":committed"; "op:" ^ op ^ ":applied";
      "checkpoint:ended" ]

let assert_verify_clean ctx reports =
  List.iter
    (fun (r : Env.table_report) ->
      if not r.Env.ok then
        Alcotest.failf "%s: table %s not clean after recovery: %s" ctx r.Env.table
          (String.concat "; " (r.Env.problems @ r.Env.notes)))
    reports

(* Run [f ()] with a hook that raises [Injected_crash] at the [at]-th
   sequence point; returns the number of points seen (their labels are
   prepended to [points]). With [at] beyond the end, nothing fires and
   [f]'s result stands. *)
let run_with_crash_at ?(points = ref []) at f =
  let count = ref 0 in
  Env.set_op_hook
    (Some
       (fun point ->
         points := point :: !points;
         let i = !count in
         incr count;
         if i = at then raise (Pager.Injected_crash ("hook:" ^ point))));
  Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () ->
      match f () with
      | () -> (!count, false)
      | exception Pager.Injected_crash _ -> (!count, true))

(* ---- manifest framing ---- *)

let sample_records =
  [
    Manifest.Begin
      {
        op_id = 1;
        op = "add_document";
        tables = [ "elements"; "postings" ];
        generation = 1;
      };
    Manifest.Step
      { op_id = 1; action = Manifest.Put { table = "elements"; key = "\x00k"; value = "v\xff" } };
    Manifest.Step
      { op_id = 1; action = Manifest.Remove { table = "postings"; key = "gone" } };
    Manifest.Step
      { op_id = 1; action = Manifest.Remove_prefix { table = "postings"; prefix = "pre" } };
    Manifest.Commit { op_id = 1 };
    Manifest.End { op_id = 1 };
    Manifest.Begin
      { op_id = 2; op = "rpl_build"; tables = [ "rpls" ]; generation = 2 };
    Manifest.Abort { op_id = 2; note = "build failed: boom" };
  ]

let test_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.mf" in
  let m = Manifest.open_file path in
  List.iter (Manifest.append m) sample_records;
  Manifest.sync m;
  check Alcotest.int "generation committed" 1 (Manifest.generation m);
  check Alcotest.int "nothing pending" 0 (List.length (Manifest.pending m));
  Manifest.close m;
  let m2 = Manifest.open_file path in
  check Alcotest.bool "records survive reopen" true
    (Manifest.records m2 = sample_records);
  check Alcotest.int "generation survives" 1 (Manifest.generation m2);
  check Alcotest.int "op ids continue past the highest" 3 (Manifest.fresh_op_id m2);
  Manifest.close m2

let test_pending_classification () =
  let m = Manifest.in_memory () in
  (* Committed but no End -> roll forward, with its steps. *)
  let a = Manifest.Put { table = "t"; key = "k"; value = "v" } in
  Manifest.append m
    (Manifest.Begin { op_id = 1; op = "fwd"; tables = [ "t" ]; generation = 1 });
  Manifest.append m (Manifest.Step { op_id = 1; action = a });
  Manifest.append m (Manifest.Commit { op_id = 1 });
  (* Begun but never committed -> roll back. *)
  Manifest.append m
    (Manifest.Begin { op_id = 2; op = "back"; tables = [ "u" ]; generation = 2 });
  match Manifest.pending m with
  | [ p1; p2 ] ->
      check Alcotest.bool "op 1 rolls forward" true
        (p1.Manifest.p_op_id = 1
        && p1.Manifest.p_status = Manifest.Roll_forward
        && p1.Manifest.p_steps = [ a ]);
      check Alcotest.bool "op 2 rolls back" true
        (p2.Manifest.p_op_id = 2
        && p2.Manifest.p_status = Manifest.Roll_back
        && p2.Manifest.p_tables = [ "u" ])
  | l -> Alcotest.failf "expected 2 pending ops, got %d" (List.length l)

(* Resolved operations leave memory as they resolve; the ones still
   open must classify exactly as in a fresh manifest, both before and
   after a reopen. *)
let test_pending_after_many_resolved () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.mf" in
  let m = Manifest.open_file path in
  let put i = Manifest.Put { table = "t"; key = string_of_int i; value = "v" } in
  let append_begin op_id =
    Manifest.append m
      (Manifest.Begin
         { op_id; op = "op"; tables = [ "t" ]; generation = op_id })
  in
  for op_id = 1 to 500 do
    append_begin op_id;
    Manifest.append m (Manifest.Step { op_id; action = put op_id });
    if op_id mod 7 = 0 then Manifest.append m (Manifest.Abort { op_id; note = "no" })
    else begin
      Manifest.append m (Manifest.Commit { op_id });
      Manifest.append m (Manifest.End { op_id })
    end
  done;
  check Alcotest.int "resolved ops are not pending" 0 (List.length (Manifest.pending m));
  check Alcotest.bool "appended records are not retained" true (Manifest.records m = []);
  append_begin 501;
  Manifest.append m (Manifest.Step { op_id = 501; action = put 501 });
  Manifest.append m (Manifest.Commit { op_id = 501 });
  append_begin 502;
  Manifest.append m (Manifest.Step { op_id = 502; action = put 502 });
  Manifest.sync m;
  let classify label m =
    match Manifest.pending m with
    | [ p1; p2 ] ->
        check Alcotest.bool (label ^ ": op 501 rolls forward") true
          (p1.Manifest.p_op_id = 501
          && p1.Manifest.p_status = Manifest.Roll_forward
          && p1.Manifest.p_steps = [ put 501 ]);
        check Alcotest.bool (label ^ ": op 502 rolls back") true
          (p2.Manifest.p_op_id = 502
          && p2.Manifest.p_status = Manifest.Roll_back
          && p2.Manifest.p_steps = [ put 502 ])
    | l -> Alcotest.failf "%s: expected 2 pending ops, got %d" label (List.length l)
  in
  classify "before reopen" m;
  check Alcotest.int "every record counted" (500 * 4 - (500 / 7) + 5) (Manifest.length m);
  Manifest.close m;
  let m2 = Manifest.open_file path in
  classify "after reopen" m2;
  Manifest.close m2

let test_torn_tail_matrix () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.mf" in
  let m = Manifest.open_file path in
  List.iter (Manifest.append m) sample_records;
  Manifest.sync m;
  let full = sample_records in
  Manifest.close m;
  let total = file_length path in
  (* Truncating at any byte must yield a valid prefix of the records —
     never a decode error, never a fabricated record. *)
  for len = 0 to total do
    let p = Filename.concat dir (Printf.sprintf "torn-%d.mf" len) in
    copy_file path p;
    truncate_file p len;
    let m = Manifest.open_file p in
    let recs = Manifest.records m in
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && is_prefix xs ys
      | _ :: _, [] -> false
    in
    check Alcotest.bool
      (Printf.sprintf "truncation at %d yields a record prefix" len)
      true
      (is_prefix recs full);
    Manifest.close m
  done

let test_corrupt_frame_skipped () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.mf" in
  let m = Manifest.open_file path in
  List.iter (Manifest.append m) sample_records;
  Manifest.sync m;
  Manifest.close m;
  (* Flip one payload byte mid-file: that frame dies, the rest live. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let off = file_length path / 2 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let before = Metrics.value (Metrics.counter "manifest.corrupt_records") in
  let m = Manifest.open_file path in
  check Alcotest.bool "some records survive" true (Manifest.records m <> []);
  check Alcotest.bool "fewer records than written" true
    (List.length (Manifest.records m) < List.length sample_records);
  check Alcotest.bool "corruption counted" true
    (Metrics.value (Metrics.counter "manifest.corrupt_records") > before);
  Manifest.close m

let test_compact_checkpoint () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.mf" in
  let m = Manifest.open_file path in
  List.iter (Manifest.append m) sample_records;
  Manifest.sync m;
  let gen = Manifest.generation m in
  let next_id = Manifest.fresh_op_id m in
  Manifest.compact m;
  check Alcotest.bool "compacted below raw size" true (file_length path < 200);
  Manifest.close m;
  let m2 = Manifest.open_file path in
  check Alcotest.int "generation preserved across compaction" gen
    (Manifest.generation m2);
  check Alcotest.int "op ids preserved across compaction" (next_id + 1)
    (Manifest.fresh_op_id m2);
  check Alcotest.int "nothing pending" 0 (List.length (Manifest.pending m2));
  Manifest.close m2

(* ---- run_logged_op ---- *)

let test_run_logged_op_applies () =
  let env = Trex.Env.in_memory () in
  let t = Env.table env "a" in
  Bptree.insert t ~key:"stale" ~value:"x";
  Bptree.insert t ~key:"stale2" ~value:"y";
  Env.run_logged_op env ~op:"test"
    ~steps:
      [
        Manifest.Remove_prefix { table = "a"; prefix = "stale" };
        Manifest.Put { table = "a"; key = "k1"; value = "v1" };
        Manifest.Put { table = "b"; key = "k2"; value = "v2" };
        Manifest.Remove { table = "b"; key = "absent" };
      ]
    ();
  check Alcotest.(option string) "put applied" (Some "v1") (Bptree.find t "k1");
  check Alcotest.(option string) "prefix removed" None (Bptree.find t "stale");
  check Alcotest.(option string) "prefix removed 2" None (Bptree.find t "stale2");
  check
    Alcotest.(option string)
    "second table written" (Some "v2")
    (Bptree.find (Env.table env "b") "k2");
  check Alcotest.int "generation bumped" 1 (Env.generation env)

(* A redo-logged op whose put creates a table, crashed after its
   commit and before any checkpoint, leaves the table file with no
   committed root. The plain open's replay reinitialises it and rolls
   the op forward; an open of the recovered env replays nothing. *)
let test_replay_creates_rootless_table () =
  let dir = temp_dir () in
  let env = Env.on_disk dir in
  Env.set_op_hook
    (Some
       (fun p ->
         if p = "op:create_put:applied" then raise (Pager.Injected_crash p)));
  (match
     Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () ->
         Env.run_logged_op env ~op:"create_put"
           ~steps:[ Manifest.Put { table = "fresh"; key = "k"; value = "v" } ]
           ())
   with
  | () -> Alcotest.fail "expected the injected crash"
  | exception Pager.Injected_crash _ -> Env.abort env);
  check Alcotest.bool "the table file exists" true
    (Sys.file_exists (Filename.concat dir "fresh.tbl"));
  let env = Env.on_disk dir in
  check Alcotest.int "nothing unresolved" 0 (Env.manifest_unresolved env);
  check Alcotest.(list string) "rolled forward" [ "rolled forward" ]
    (List.map (fun r -> r.Env.res_outcome) (Env.manifest_resolutions env));
  check Alcotest.(option string) "the put is replayed" (Some "v")
    (Bptree.find (Env.table env "fresh") "k");
  Env.close env;
  let env = Env.on_disk dir in
  check Alcotest.int "nothing left to replay" 0
    (List.length (Env.manifest_resolutions env));
  check Alcotest.(option string) "the put is durable" (Some "v")
    (Bptree.find (Env.table env "fresh") "k");
  Env.close env

(* An operation whose apply raises in process (a drop over a damaged
   list table) stays committed, and is applied again before any later
   one: a later op is refused while it still fails, and once the pair
   is quarantined and rebuilt, nothing replays it over the rebuilt
   lists at the next open. *)
let test_failed_apply_applied_first () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:8 ~seed:53 in
  ignore (Trex.materialize engine nexi);
  let lists = List.length (Rpl.catalog (Trex.index engine) Rpl.Rpl) in
  Trex.Env.close env;
  (* Damage every page of the RPL table; its header slots stay whole. *)
  let path = Filename.concat dir "rpls.tbl" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let off = ref 228 in
  while !off < file_length path do
    ignore (Unix.lseek fd !off Unix.SEEK_SET);
    ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
    off := !off + 8196
  done;
  Unix.close fd;
  let env = Trex.Env.on_disk dir in
  let engine = Trex.attach ~env () in
  let index = Trex.index engine in
  let raises_corruption ctx f =
    match f () with
    | () -> Alcotest.failf "%s: read no damaged page" ctx
    | exception Pager.Corruption _ -> ()
  in
  raises_corruption "the drop" (fun () -> Rpl.drop_all index Rpl.Rpl);
  raises_corruption "a later op" (fun () ->
      ignore (Trex.add_document engine ~name:"later" ~xml:"<a><b>word</b></a>"));
  List.iter (Env.quarantine_table env) [ "rpls"; "rpl_catalog" ];
  ignore (Trex.materialize engine ~kinds:[ Rpl.Rpl ] nexi);
  check Alcotest.int "lists rebuilt" lists (List.length (Rpl.catalog index Rpl.Rpl));
  Trex.Env.close env;
  let env = Trex.Env.on_disk dir in
  check Alcotest.int "nothing left to replay" 0 (List.length (Env.manifest_resolutions env));
  let engine = Trex.attach ~env () in
  ignore (drain_advertised "reopened" (Trex.index engine));
  check Alcotest.int "rebuilt lists survive the reopen" lists
    (List.length (Rpl.catalog (Trex.index engine) Rpl.Rpl));
  Trex.Env.close env

(* ---- add_document crash matrix (hook points) ---- *)

(* Shared fixture: a small on-disk index with materialized lists, the
   document to add, and the pre/post expectations. *)
type add_fixture = {
  pristine : string;
  doc_xml : string;
  pre_docs : int;
  post_docs : int;
  pre_sig : (int * int) list;
  post_sig : (int * int) list;
  pre_catalog : (Rpl.kind * string * int) list;  (** materialized pairs *)
  post_catalog : (Rpl.kind * string * int) list;
}

let catalog_pairs engine =
  List.concat_map
    (fun kind ->
      List.map
        (fun (term, sid, _, _) -> (kind, term, sid))
        (Rpl.catalog (Trex.index engine) kind))
    [ Rpl.Rpl; Rpl.Erpl ]

let make_add_fixture () =
  let pristine = temp_dir () in
  let env, engine = build_collection pristine ~docs:6 ~seed:11 in
  ignore (Trex.materialize engine nexi);
  let pre_sig = era_sig engine in
  let pre_docs = (Index.stats (Trex.index engine)).Index.doc_count in
  let pre_catalog = catalog_pairs engine in
  Trex.Env.close env;
  let doc_xml =
    "<article><sec>information retrieval of indexed xml data</sec></article>"
  in
  (* One clean post-run to learn the expected post state. *)
  let post = temp_dir () in
  copy_dir pristine post;
  let env = Trex.Env.on_disk post in
  let engine = Trex.attach ~env () in
  ignore (Trex.add_document engine ~name:"crash-doc" ~xml:doc_xml);
  let post_sig = era_sig engine in
  let post_docs = (Index.stats (Trex.index engine)).Index.doc_count in
  let post_catalog = catalog_pairs engine in
  Trex.Env.close env;
  check Alcotest.int "fixture: document counted" (pre_docs + 1) post_docs;
  check Alcotest.bool "fixture: lists invalidated" true
    (List.length post_catalog < List.length pre_catalog);
  check Alcotest.bool "fixture: new document is relevant" true
    (pre_sig <> post_sig);
  { pristine; doc_xml; pre_docs; post_docs; pre_sig; post_sig; pre_catalog; post_catalog }

(* Recover [dir] and check it is exactly the pre- or post-operation
   index; returns [true] for post. *)
let assert_pre_or_post ctx fx dir =
  let env, reports = Env.open_with_recovery dir in
  assert_verify_clean ctx reports;
  check Alcotest.int (ctx ^ ": nothing unresolved") 0 (Env.manifest_unresolved env);
  let engine = Trex.attach ~env () in
  let docs = (Index.stats (Trex.index engine)).Index.doc_count in
  let catalog = catalog_pairs engine in
  let s = era_sig engine in
  let is_post =
    if docs = fx.post_docs then true
    else if docs = fx.pre_docs then false
    else Alcotest.failf "%s: doc_count %d is neither pre nor post" ctx docs
  in
  if is_post then begin
    (* The document is visible, so every list it invalidates must be
       gone with it — a servable stale list here is the bug this PR
       exists to close. *)
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      (ctx ^ ": stale lists dropped with the visible document")
      (List.map (fun (_, t, s) -> (t, s)) fx.post_catalog)
      (List.map (fun (_, t, s) -> (t, s)) catalog);
    check sig_testable (ctx ^ ": post answers") fx.post_sig s
  end
  else begin
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      (ctx ^ ": pre catalog intact")
      (List.map (fun (_, t, s) -> (t, s)) fx.pre_catalog)
      (List.map (fun (_, t, s) -> (t, s)) catalog);
    check sig_testable (ctx ^ ": pre answers") fx.pre_sig s
  end;
  Trex.Env.close env;
  is_post

let crash_add_at fx work at =
  copy_dir fx.pristine work;
  let env = Trex.Env.on_disk work in
  let engine = Trex.attach ~env () in
  let seen, crashed =
    run_with_crash_at at (fun () ->
        ignore (Trex.add_document engine ~name:"crash-doc" ~xml:fx.doc_xml))
  in
  Env.abort env;
  (seen, crashed)

let test_add_document_crash_matrix () =
  let fx = make_add_fixture () in
  let work = temp_dir () in
  (* The add, then the checkpoint that makes it durable in the tables. *)
  let crash_add_at fx work at =
    copy_dir fx.pristine work;
    let env = Trex.Env.on_disk work in
    let engine = Trex.attach ~env () in
    let seen, crashed =
      run_with_crash_at at (fun () ->
          ignore (Trex.add_document engine ~name:"crash-doc" ~xml:fx.doc_xml);
          Env.checkpoint env)
    in
    Env.abort env;
    (seen, crashed)
  in
  (* Counting pass: no crash point fires. *)
  let total, crashed = crash_add_at fx work max_int in
  check Alcotest.bool "counting pass completes" false crashed;
  check Alcotest.bool "add_document has sequence points" true (total >= 5);
  ignore (assert_pre_or_post "counting pass" fx work);
  let pre = ref 0 and post = ref 0 in
  for at = 0 to total - 1 do
    let seen, crashed = crash_add_at fx work at in
    check Alcotest.int (Printf.sprintf "point %d: crashed at that point" at) (at + 1) seen;
    check Alcotest.bool (Printf.sprintf "point %d: crash fired" at) true crashed;
    let ctx = Printf.sprintf "add_document crash at point %d" at in
    if assert_pre_or_post ctx fx work then incr post else incr pre
  done;
  (* The matrix must witness both resolutions or it proved nothing. *)
  check Alcotest.bool "some crash points roll back" true (!pre > 0);
  check Alcotest.bool "some crash points roll forward" true (!post > 0)

(* ---- add_document crash matrix (manifest byte positions) ---- *)

let test_add_document_truncation_matrix () =
  let fx = make_add_fixture () in
  (* Crash right after the steps were applied but before any flush: the
     manifest holds Begin..Commit and the tables hold nothing durable,
     so every truncation point of MANIFEST.mf decides pre vs post. *)
  let crashed_dir = temp_dir () in
  let at =
    (* find the "applied" point of the add_document op *)
    let points = ref [] in
    copy_dir fx.pristine crashed_dir;
    let env = Trex.Env.on_disk crashed_dir in
    let engine = Trex.attach ~env () in
    Env.set_op_hook (Some (fun p -> points := p :: !points));
    ignore (Trex.add_document engine ~name:"crash-doc" ~xml:fx.doc_xml);
    Env.set_op_hook None;
    Trex.Env.close env;
    let points = List.rev !points in
    let rec find i = function
      | [] -> Alcotest.fail "no applied point"
      | p :: _ when p = "op:add_document:applied" -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 points
  in
  let _seen, crashed = crash_add_at fx crashed_dir at in
  check Alcotest.bool "crashed at applied" true crashed;
  let mf = Filename.concat crashed_dir "MANIFEST.mf" in
  let total = file_length mf in
  check Alcotest.bool "manifest non-trivial" true (total > 64);
  let work = temp_dir () in
  let stride = if soak_seeds () > 2 then 4 else 16 in
  let lens =
    (* every byte of the tail (the Commit record region), strided
       earlier positions, and the exact ends *)
    let l = ref [] in
    let add x = if x >= 0 && x <= total && not (List.mem x !l) then l := x :: !l in
    for i = 0 to 64 do add (total - i) done;
    let i = ref 0 in
    while !i < total do
      add !i;
      i := !i + stride
    done;
    List.sort compare !l
  in
  let pre = ref 0 and post = ref 0 in
  List.iter
    (fun len ->
      copy_dir crashed_dir work;
      truncate_file (Filename.concat work "MANIFEST.mf") len;
      let ctx = Printf.sprintf "manifest truncated to %d bytes" len in
      if assert_pre_or_post ctx fx work then incr post else incr pre)
    lens;
  check Alcotest.bool "truncation matrix reaches pre state" true (!pre > 0);
  check Alcotest.bool "truncation matrix reaches post state" true (!post > 0)

(* ---- materialize (Rpl.build) crash matrix ---- *)

let test_materialize_crash_matrix () =
  let pristine = temp_dir () in
  let env, engine = build_collection pristine ~docs:6 ~seed:23 in
  let pre_sig = era_sig engine in
  Trex.Env.close env;
  let work = temp_dir () in
  let points = ref [] in
  let run at =
    copy_dir pristine work;
    let env = Trex.Env.on_disk work in
    let engine = Trex.attach ~env () in
    let r = run_with_crash_at ~points at (fun () -> ignore (Trex.materialize engine nexi)) in
    Env.abort env;
    r
  in
  let total, crashed = run max_int in
  check Alcotest.bool "counting pass completes" false crashed;
  check_logged_points "materialize" "rpl_build" !points;
  check Alcotest.bool "materialize has sequence points" true (total >= 4);
  let committed = ref 0 and rolled_back = ref 0 in
  for at = 0 to total - 1 do
    let _, crashed = run at in
    check Alcotest.bool (Printf.sprintf "point %d: crash fired" at) true crashed;
    let ctx = Printf.sprintf "materialize crash at point %d" at in
    let env, reports = Env.open_with_recovery work in
    assert_verify_clean ctx reports;
    check Alcotest.int (ctx ^ ": nothing unresolved") 0 (Env.manifest_unresolved env);
    let engine = Trex.attach ~env () in
    let t = Trex.translate engine (Trex.parse engine nexi) in
    let sids = Trex.Translate.all_sids t and terms = Trex.Translate.all_terms t in
    let covers kind = Rpl.covers (Trex.index engine) kind ~sids ~terms in
    let empty kind = Rpl.catalog (Trex.index engine) kind = [] in
    (* Per kind: the build either committed whole or was rolled back
       whole — a catalog advertising a partial generation is the bug. *)
    List.iter
      (fun kind ->
        check Alcotest.bool
          (Printf.sprintf "%s: %s lists all-or-nothing" ctx (Rpl.kind_to_string kind))
          true
          (covers kind || empty kind);
        if covers kind then incr committed else incr rolled_back)
      [ Rpl.Rpl; Rpl.Erpl ];
    (* Ground truth is untouched either way. *)
    check sig_testable (ctx ^ ": ERA answers unchanged") pre_sig (era_sig engine);
    (* And the resilient path serves the query whatever survived. *)
    let o = Trex.query engine ~k:5 nexi in
    check sig_testable (ctx ^ ": resilient answers unchanged") pre_sig (sig_of o);
    Trex.Env.close env
  done;
  check Alcotest.bool "matrix saw committed builds" true (!committed > 0);
  check Alcotest.bool "matrix saw rolled-back builds" true (!rolled_back > 0)

(* ---- Advisor.apply crash matrix ---- *)

let other_nexi = "//article//abs[about(., multimedia systems)]"
let stale_nexi = "//article//sec[about(., xml data)]"

(* The pre-state already holds the lists of the plan's first selected
   query (which the plan keeps), plus lists of a query outside the
   workload (which it drops); [apply] drops, keeps and builds. A list
   the plan keeps must survive every crash point whole: a crash may
   lose the plan's progress, never what it kept. *)
let test_advisor_apply_crash_matrix () =
  let pristine = temp_dir () in
  let env, engine = build_collection pristine ~docs:6 ~seed:31 in
  let pre_sig = era_sig engine in
  let workload =
    Trex.Workload.create
      [
        { Trex.Workload.id = "q1"; nexi; k = 5; frequency = 0.6 };
        { Trex.Workload.id = "q2"; nexi = other_nexi; k = 5; frequency = 0.4 };
      ]
  in
  (* Plan once (measurement passes drop/build lists; do it on the
     pristine env so crash runs only replay [apply]). *)
  let plan, profiles = Trex.advise engine ~workload ~budget:max_int ~runs:1 () in
  let selected =
    List.filter (fun (_, c) -> c <> Trex.Advisor.No_index) plan.Trex.Advisor.decisions
  in
  check Alcotest.bool "plan selects an index" true (selected <> []);
  let first_id, first_choice = List.hd selected in
  let first = Option.get (Trex.Workload.find workload first_id) in
  let kept_kind = if first_choice = Trex.Advisor.Use_rpl then Rpl.Rpl else Rpl.Erpl in
  ignore (Trex.materialize engine ~kinds:[ kept_kind ] first.Trex.Workload.nexi);
  let kept = drain_advertised "pre-state" (Trex.index engine) in
  ignore (Trex.materialize engine stale_nexi);
  check Alcotest.bool "pre-state holds lists the plan drops" true
    (List.length (drain_advertised "pre-state" (Trex.index engine)) > List.length kept);
  check Alcotest.bool "pre-state holds lists the plan keeps" true (kept <> []);
  Trex.vacuum engine;
  Trex.Env.close env;
  let work = temp_dir () in
  let points = ref [] in
  let run at =
    copy_dir pristine work;
    let env = Trex.Env.on_disk work in
    let engine = Trex.attach ~env () in
    let r =
      run_with_crash_at ~points at (fun () ->
          Trex.Advisor.apply (Trex.index engine) ~scoring:(Trex.scoring engine)
            ~workload ~profiles plan)
    in
    Env.abort env;
    r
  in
  let total, crashed = run max_int in
  check Alcotest.bool "counting pass completes" false crashed;
  check_logged_points "apply" "rpl_drop" !points;
  check Alcotest.bool "apply has sequence points" true (total >= 6);
  for at = 0 to total - 1 do
    let _, crashed = run at in
    check Alcotest.bool (Printf.sprintf "point %d: crash fired" at) true crashed;
    let ctx = Printf.sprintf "advisor apply crash at point %d" at in
    let env, reports = Env.open_with_recovery work in
    assert_verify_clean ctx reports;
    check Alcotest.int (ctx ^ ": nothing unresolved") 0 (Env.manifest_unresolved env);
    let engine = Trex.attach ~env () in
    let advertised = drain_advertised ctx (Trex.index engine) in
    List.iter
      (fun (kind, term, sid, entries) ->
        check Alcotest.bool
          (Printf.sprintf "%s: kept %s list (%s, %d) survives" ctx (Rpl.kind_to_string kind)
             term sid)
          true
          (List.mem (kind, term, sid, entries) advertised))
      kept;
    check sig_testable (ctx ^ ": answers unchanged") pre_sig (era_sig engine);
    Trex.Env.close env
  done

(* ---- Rpl.drop_all crash matrix ---- *)

(* Both kinds' drops, then the checkpoint that makes them durable in
   the tables, crashed at every point: each list is whole (advertised,
   and drains to its catalog count) or gone (no catalog row and no row
   under its pair). *)
let test_drop_all_crash_matrix () =
  let pristine = temp_dir () in
  let env, engine = build_collection pristine ~docs:6 ~seed:37 in
  ignore (Trex.materialize engine nexi);
  ignore (Trex.materialize engine other_nexi);
  let pre = drain_advertised "pre-state" (Trex.index engine) in
  let pre_sig = era_sig engine in
  Trex.Env.close env;
  check Alcotest.bool "pre-state holds lists" true (pre <> []);
  let work = temp_dir () in
  let points = ref [] in
  let run at =
    copy_dir pristine work;
    let env = Trex.Env.on_disk work in
    let engine = Trex.attach ~env () in
    let r =
      run_with_crash_at ~points at (fun () ->
          List.iter (Rpl.drop_all (Trex.index engine)) [ Rpl.Rpl; Rpl.Erpl ];
          Env.checkpoint env)
    in
    Env.abort env;
    r
  in
  let total, crashed = run max_int in
  check Alcotest.bool "counting pass completes" false crashed;
  check_logged_points "drop_all" "rpl_drop" !points;
  let whole = ref 0 and gone = ref 0 in
  for at = 0 to total do
    let _, crashed = run at in
    check Alcotest.bool (Printf.sprintf "point %d: crash fired" at) (at < total) crashed;
    let ctx = Printf.sprintf "drop_all crash at point %d" at in
    let env, reports = Env.open_with_recovery work in
    assert_verify_clean ctx reports;
    check Alcotest.int (ctx ^ ": nothing unresolved") 0 (Env.manifest_unresolved env);
    let engine = Trex.attach ~env () in
    let index = Trex.index engine in
    let advertised = drain_advertised ctx index in
    List.iter
      (fun ((kind, term, sid, _) as l) ->
        if List.mem l advertised then incr whole
        else begin
          let rows = ref 0 in
          Bptree.iter_prefix (Env.table env (Rpl.table_name kind))
            ~prefix:
              (Trex_util.Codec.concat_keys
                 [ Trex_util.Codec.key_of_string term; Trex_util.Codec.key_of_int sid ])
            (fun _ _ -> incr rows);
          check Alcotest.int
            (Printf.sprintf "%s: dropped %s list (%s, %d) leaves no rows" ctx
               (Rpl.kind_to_string kind) term sid)
            0 !rows;
          incr gone
        end)
      pre;
    check Alcotest.bool (ctx ^ ": no list appears") true
      (List.for_all (fun l -> List.mem l pre) advertised);
    check sig_testable (ctx ^ ": answers unchanged") pre_sig (era_sig engine);
    Trex.Env.close env
  done;
  check Alcotest.bool "matrix saw lists kept whole" true (!whole > 0);
  check Alcotest.bool "matrix saw lists gone" true (!gone > 0)

(* ---- Autopilot.maybe_heal interrupted mid-rebuild ---- *)

(* The heal quarantines the pair and rebuilds it with [Rpl.build]; an
   interruption at any point of the build's logged op or checkpoint
   (in-process, so in memory) leaves the pair's lists all or nothing
   and its breakers open, and the next pass converges. *)
let test_heal_interrupted_converges () =
  let setup () =
    let coll = Trex_corpus.Gen.ieee ~doc_count:10 ~seed:47 () in
    let env = Trex.Env.in_memory () in
    let engine = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
    ignore (Trex.materialize engine nexi);
    let pilot =
      Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
        ~budget:max_int ()
    in
    Trex.Autopilot.record pilot ~nexi ~k:5;
    (env, engine, pilot)
  in
  let trip env =
    Env.trip_table env "rpls" ~reason:"injected for the interruption test";
    Breaker.set_cooldown (Env.breaker env "rpls") 0.0
  in
  let heal_at ?points pilot at =
    let reports = ref [] in
    let _, crashed =
      run_with_crash_at ?points at (fun () -> reports := Trex.Autopilot.maybe_heal pilot)
    in
    (crashed, !reports)
  in
  let points = ref [] in
  let env, engine, pilot = setup () in
  let baseline = Trex.query engine ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
  trip env;
  let t = Trex.translate engine (Trex.parse engine nexi) in
  let sids = Trex.Translate.all_sids t and terms = Trex.Translate.all_terms t in
  (* Counting pass: the heal's own points. *)
  (match heal_at ~points pilot max_int with
  | false, [ { Trex.Autopilot.action = Trex.Autopilot.Rebuilt _; _ } ] -> ()
  | crashed, reports ->
      Alcotest.failf "counting pass: expected one rebuilt report, got %s%s"
        (String.concat "; " (List.map (Format.asprintf "%a" Trex.Autopilot.pp_heal) reports))
        (if crashed then " (crashed)" else ""));
  check_logged_points "heal" "rpl_build" !points;
  let total = List.length !points in
  for at = 0 to total - 1 do
    let ctx = Printf.sprintf "heal interrupted at point %d" at in
    let env, engine, pilot = setup () in
    trip env;
    let index = Trex.index engine in
    (* First heal attempt: interrupted inside the rebuild. [maybe_heal]
       reports the failure rather than raising it. *)
    (match heal_at pilot at with
    | false, [ { Trex.Autopilot.action = Trex.Autopilot.Still_failing _; _ } ] -> ()
    | _, reports ->
        Alcotest.failf "%s: expected one still-failing report, got %d" ctx
          (List.length reports));
    (* The interruption must leave the pair's lists whole or absent, not
       half-built. (The breaker's cooldown is 0 here, so
       [table_available] would admit a half-open probe; the state is
       what must not be Closed.) *)
    Alcotest.(check bool) (ctx ^ ": breaker stays open") true
      (Breaker.state (Env.breaker env "rpls") <> Breaker.Closed);
    ignore (drain_advertised ctx index);
    check Alcotest.bool (ctx ^ ": rpls all or nothing") true
      (Rpl.covers index Rpl.Rpl ~sids ~terms || Rpl.catalog index Rpl.Rpl = []);
    (* Next pass (cooldown elapsed) converges: rebuild completes. *)
    Breaker.set_cooldown (Env.breaker env "rpls") 0.0;
    Breaker.set_cooldown (Env.breaker env "rpl_catalog") 0.0;
    (match Trex.Autopilot.maybe_heal pilot with
    | [ { Trex.Autopilot.action = Trex.Autopilot.Rebuilt _; _ } ] -> ()
    | reports ->
        Alcotest.failf "%s: expected one rebuilt report, got %d" ctx (List.length reports));
    Alcotest.(check bool) (ctx ^ ": breaker closed") true (Env.table_available env "rpls");
    check Alcotest.int (ctx ^ ": nothing left to heal") 0
      (List.length (Trex.Autopilot.maybe_heal pilot));
    let after = Trex.query engine ~k:5 ~method_:Trex.Strategy.Ta_method nexi in
    check sig_testable (ctx ^ ": TA serves exactly as before the damage") (sig_of baseline)
      (sig_of after)
  done

(* ---- stale generation blocks cursors, verify flags it ---- *)

let test_unresolved_blocks_generation () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:6 ~seed:59 in
  ignore (Trex.materialize engine nexi);
  let pre_sig = era_sig engine in
  Trex.Env.close env;
  (* Forge a committed operation whose replay cannot succeed (a step
     into an invalid table name): recovery must leave it pending,
     block its tables, and refuse to serve their lists. *)
  let m = Manifest.open_file (Filename.concat dir "MANIFEST.mf") in
  let op_id = Manifest.fresh_op_id m in
  Manifest.append m
    (Manifest.Begin
       {
         op_id;
         op = "forged";
         tables = [ "rpls"; "rpl_catalog" ];
         generation = Manifest.next_generation m;
       });
  Manifest.append m
    (Manifest.Step
       { op_id; action = Manifest.Put { table = "no/such table"; key = "k"; value = "v" } });
  Manifest.append m (Manifest.Commit { op_id });
  Manifest.sync m;
  Manifest.close m;
  let env, reports = Env.open_with_recovery dir in
  check Alcotest.int "one unresolved op" 1 (Env.manifest_unresolved env);
  check Alcotest.bool "rpls blocked" true (Env.table_blocked env "rpls");
  check Alcotest.bool "unrelated table not blocked" false
    (Env.table_blocked env "elements");
  (* The blocked table's report is demoted so operators see it. *)
  let rpls_report =
    List.find (fun (r : Env.table_report) -> r.Env.table = "rpls") reports
  in
  check Alcotest.bool "blocked table reported not-ok" false rpls_report.Env.ok;
  let engine = Trex.attach ~env () in
  let t = Trex.translate engine (Trex.parse engine nexi) in
  let terms = Trex.Translate.all_terms t and sids = Trex.Translate.all_sids t in
  (* Cursors refuse the uncommitted generation... *)
  (match Rpl.Cursor.create (Trex.index engine) Rpl.Rpl ~term:(List.hd terms) ~sid:(List.hd sids) with
  | exception Rpl.Stale_generation { table = "rpls"; _ } -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "cursor served a blocked table");
  (* ...and the resilient path routes around them with right answers. *)
  let o = Trex.query engine ~k:5 nexi in
  check sig_testable "blocked lists never reach answers" pre_sig (sig_of o);
  Trex.Env.close env

(* ---- satellite: directory fsync after unlink ---- *)

let test_drop_table_syncs_directory () =
  let dir = temp_dir () in
  let env = Trex.Env.on_disk dir in
  let t = Env.table env "doomed" in
  Bptree.insert t ~key:"k" ~value:"v";
  Env.flush ~sync:true env;
  let path = Filename.concat dir "doomed.tbl" in
  check Alcotest.bool "table file exists" true (Sys.file_exists path);
  let d0 = Metrics.value (Metrics.counter "env.dir_fsyncs") in
  Env.drop_table env "doomed";
  check Alcotest.bool "drop fsyncs the directory" true
    (Metrics.value (Metrics.counter "env.dir_fsyncs") > d0);
  check Alcotest.bool "file unlinked" false (Sys.file_exists path);
  let t2 = Env.table env "doomed2" in
  Bptree.insert t2 ~key:"k" ~value:"v";
  Env.flush ~sync:true env;
  let d1 = Metrics.value (Metrics.counter "env.dir_fsyncs") in
  Env.quarantine_table env "doomed2";
  check Alcotest.bool "quarantine fsyncs the directory" true
    (Metrics.value (Metrics.counter "env.dir_fsyncs") > d1);
  Trex.Env.close env;
  (* The deletion is durable: a reopen cannot resurrect the table. *)
  let env2 = Trex.Env.on_disk dir in
  check Alcotest.bool "dropped table stays dropped" false (Env.has_table env2 "doomed");
  check Alcotest.bool "quarantined table stays dropped" false
    (Env.has_table env2 "doomed2");
  Trex.Env.close env2

(* ---- manifest compaction at open ---- *)

let test_manifest_compacts_at_open () =
  let dir = temp_dir () in
  let env, engine = build_collection dir ~docs:4 ~seed:71 in
  ignore (Trex.add_document engine ~name:"extra" ~xml:"<a><b>word</b></a>");
  ignore (Trex.materialize engine nexi);
  let gen = Env.generation env in
  check Alcotest.bool "operations committed generations" true (gen >= 2);
  Trex.Env.close env;
  let env2 = Trex.Env.on_disk dir in
  check Alcotest.int "generation survives reopen" gen (Env.generation env2);
  check Alcotest.int "resolved history compacted to a checkpoint" 1
    (Manifest.length (Env.manifest env2));
  check Alcotest.bool "manifest file shrunk" true
    (file_length (Filename.concat dir "MANIFEST.mf") < 128);
  Trex.Env.close env2

(* ---- checkpoint crash matrix ---- *)

let checkpoint_docs =
  [
    ("cp-a", "<article><sec>information retrieval of xml</sec></article>");
    ( "cp-b",
      "<article><sec>retrieval of information in indexed documents</sec><sec>xml \
       information</sec></article>" );
    ("cp-c", "<article><sec>information retrieval, information retrieval</sec></article>");
  ]

(* Three adds, then the checkpoint that makes them durable in the
   tables, crashed at every sequence point — with the default cache, and
   with a cache so small that pinned pages force checkpoints inside the
   adds. Recovery must land on exactly a prefix of the adds, holding at
   least every add whose commit was durable, and answer as an index
   built from that prefix does. *)
let test_checkpoint_crash_matrix () =
  let pristine = temp_dir () in
  let env, engine = build_collection pristine ~docs:6 ~seed:83 in
  ignore (Trex.materialize engine nexi);
  let pre_docs = (Index.stats (Trex.index engine)).Index.doc_count in
  Trex.Env.close env;
  let add_first engine n =
    List.iteri
      (fun i (name, xml) -> if i < n then ignore (Trex.add_document engine ~name ~xml))
      checkpoint_docs
  in
  let expected =
    Array.init 4 (fun n ->
        let dir = temp_dir () in
        copy_dir pristine dir;
        let env = Trex.Env.on_disk dir in
        let engine = Trex.attach ~env () in
        add_first engine n;
        let s = era_sig engine in
        Trex.Env.close env;
        s)
  in
  List.iter
    (fun cache_pages ->
      let work = temp_dir () in
      (* Like [run_with_crash_at], also counting the adds whose commit
         was durable when the crash hit: those must survive it. *)
      let run at =
        copy_dir pristine work;
        let env = Trex.Env.on_disk ~cache_pages work in
        let engine = Trex.attach ~env () in
        let count = ref 0 and committed = ref 0 in
        Env.set_op_hook
          (Some
             (fun point ->
               if point = "op:add_document:committed" then incr committed;
               let i = !count in
               incr count;
               if i = at then raise (Pager.Injected_crash ("hook:" ^ point))));
        let crashed =
          Fun.protect ~finally:(fun () -> Env.set_op_hook None) (fun () ->
              match
                add_first engine 3;
                Env.checkpoint env
              with
              | () -> false
              | exception Pager.Injected_crash _ -> true)
        in
        Env.abort env;
        (!count, !committed, crashed)
      in
      let total, _, crashed = run max_int in
      check Alcotest.bool "counting pass completes" false crashed;
      let landed = Array.make 4 0 in
      for at = 0 to total do
        let _, committed, crashed = run at in
        check Alcotest.bool (Printf.sprintf "point %d: crash fired" at) (at < total) crashed;
        let ctx = Printf.sprintf "cache %d, crash at point %d" cache_pages at in
        let env, reports = Env.open_with_recovery ~cache_pages work in
        assert_verify_clean ctx reports;
        check Alcotest.int (ctx ^ ": nothing unresolved") 0 (Env.manifest_unresolved env);
        let engine = Trex.attach ~env () in
        let n = (Index.stats (Trex.index engine)).Index.doc_count - pre_docs in
        if n < committed || n > 3 then
          Alcotest.failf "%s: %d documents added, %d committed" ctx n committed;
        check sig_testable (ctx ^ ": answers of the prefix") expected.(n) (era_sig engine);
        landed.(n) <- landed.(n) + 1;
        Trex.Env.close env
      done;
      Array.iteri
        (fun n c ->
          check Alcotest.bool
            (Printf.sprintf "cache %d: some crash lands on %d adds" cache_pages n)
            true (c > 0))
        landed)
    [ 4096; 2 ]

(* ---- an operation past the frame limit ---- *)

let test_oversized_add_recovers () =
  let dir = temp_dir () in
  let env, _ = build_collection dir ~docs:4 ~seed:89 in
  Trex.Env.close env;
  let env = Trex.Env.on_disk dir in
  let engine = Trex.attach ~env () in
  (* The source table alone logs the whole document. *)
  let filler = String.make (Trex_util.Framing.max_payload + (1 lsl 20)) 'x' in
  let xml = "<article><sec>information retrieval</sec><!--" ^ filler ^ "--></article>" in
  let appends = Metrics.counter "manifest.appends" in
  let before = Metrics.value appends in
  let docid = Trex.add_document engine ~name:"huge" ~xml in
  check Alcotest.bool "logged in several frames" true (Metrics.value appends - before >= 2);
  (* Crash before any checkpoint: only the log holds the document. *)
  Env.abort env;
  let env, reports = Env.open_with_recovery dir in
  assert_verify_clean "oversized add" reports;
  check
    Alcotest.(list string)
    "rolled forward"
    [ "rolled forward" ]
    (List.map (fun (r : Env.resolution) -> r.Env.res_outcome) (Env.manifest_resolutions env));
  let engine = Trex.attach ~env () in
  check Alcotest.int "document counted" 5 (Index.stats (Trex.index engine)).Index.doc_count;
  check Alcotest.bool "source stored whole" true (Index.source (Trex.index engine) docid = Some xml);
  Trex.Env.close env

(* ---- environments of another format version are refused ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every file of [dir], name and bytes. *)
let snapshot dir =
  List.map
    (fun f -> (f, read_file (Filename.concat dir f)))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let check_untouched ctx before dir =
  let after = snapshot dir in
  let changed =
    List.filter_map
      (fun (f, bytes) -> if List.assoc_opt f before = Some bytes then None else Some f)
      after
  in
  check Alcotest.(list string) (ctx ^ ": same files") (List.map fst before) (List.map fst after);
  check Alcotest.(list string) (ctx ^ ": files changed") [] changed

(* The JSON manifest's magic, the build-op one (older versions) and a
   newer one: the open refuses the environment before the sweep could
   restart the file, and writes nothing. *)
let test_other_manifest_versions_refused () =
  let dir = temp_dir () in
  let env, _ = build_collection dir ~docs:4 ~seed:21 in
  Trex.Env.close env;
  let path = Filename.concat dir "MANIFEST.mf" in
  List.iter
    (fun version ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644 in
      Trex_util.Framing.write_all fd (Bytes.of_string ("TREXMF" ^ version ^ "\n"));
      Trex_util.Framing.append fd {|{"t":"checkpoint","gen":1,"next":1}|};
      Unix.close fd;
      let before = snapshot dir in
      let refused = Manifest.Unsupported_format { found = Some ("TREXMF" ^ version); expected = "TREXMF3" } in
      Alcotest.check_raises ("TREXMF" ^ version ^ " refused at open") refused (fun () ->
          ignore (Env.on_disk dir));
      Alcotest.check_raises ("TREXMF" ^ version ^ " refused by recovery") refused (fun () ->
          ignore (Env.open_with_recovery dir));
      check_untouched ("TREXMF" ^ version) before dir)
    [ "1"; "2"; "9" ]

(* An index written before the [format] key (its meta says
   [postings_layout = blocked] instead) and one of another format value
   are refused at attach, every file untouched. *)
let test_other_index_formats_refused () =
  let dir = temp_dir () in
  let key = Trex_util.Codec.key_of_string in
  let set_meta f =
    let env = Trex.Env.on_disk dir in
    f (Env.table env Trex_invindex.Tables.meta_table);
    Trex.Env.close env
  in
  let refused ctx found =
    let before = snapshot dir in
    let env = Trex.Env.on_disk dir in
    Alcotest.check_raises ctx
      (Manifest.Unsupported_format { found; expected = Index.format })
      (fun () -> ignore (Trex.attach ~env ()));
    check_untouched ctx before dir;
    Trex.Env.close env
  in
  let env, _ = build_collection dir ~docs:4 ~seed:22 in
  Trex.Env.close env;
  set_meta (fun meta ->
      ignore (Bptree.remove meta (key "format"));
      Bptree.insert meta ~key:(key "postings_layout") ~value:"blocked");
  refused "no format key" None;
  List.iter
    (fun old ->
      set_meta (fun meta -> Bptree.insert meta ~key:(key "format") ~value:old);
      refused ("format " ^ old) (Some old))
    [ "trex-0"; "trex-1" ]

(* A path holding no index — missing, an empty directory, a directory
   of other files — is refused with [Index.No_index] by the attach and
   by the inspection path ([verify], [health]), and left as it was: no
   directory, table file, manifest or journal created. *)
let test_missing_index_refused () =
  let root = temp_dir () in
  let absent = Filename.concat root "absent" in
  let empty = Filename.concat root "empty" in
  let stray = Filename.concat root "stray" in
  Unix.mkdir empty 0o755;
  Unix.mkdir stray 0o755;
  Out_channel.with_open_bin (Filename.concat stray "notes.txt") (fun oc ->
      output_string oc "not an index");
  let refuse dir =
    let env = Env.on_disk dir in
    Alcotest.check_raises (dir ^ ": attach refused") (Index.No_index dir) (fun () ->
        ignore (Trex.attach ~env ()));
    check Alcotest.bool (dir ^ ": no journal") false (Env.has_journal env);
    Env.close env;
    let env, reports = Env.open_with_recovery dir in
    check Alcotest.int (dir ^ ": nothing to verify") 0 (List.length reports);
    Alcotest.check_raises (dir ^ ": inspection refused") (Index.No_index dir) (fun () ->
        Index.require env);
    Env.close env
  in
  refuse absent;
  check Alcotest.bool "a missing directory stays missing" false (Sys.file_exists absent);
  List.iter
    (fun dir ->
      let before = snapshot dir in
      refuse dir;
      check_untouched dir before dir)
    [ empty; stray ]

(* An environment whose manifest holds only resolved history (as one
   closed by a build that compacted nothing) opens without writing:
   had it been of another format, refusing it would leave every file
   as it was. *)
let test_resolved_history_open_writes_nothing () =
  let dir = temp_dir () in
  let env, _ = build_collection dir ~docs:4 ~seed:23 in
  Trex.Env.close env;
  let m = Manifest.open_file (Filename.concat dir "MANIFEST.mf") in
  let op_id = Manifest.fresh_op_id m in
  Manifest.append_records m
    [
      Manifest.Begin
        { op_id; op = "rpl_build"; tables = [ "rpls" ]; generation = Manifest.next_generation m };
      Manifest.Commit { op_id };
      Manifest.End { op_id };
    ];
  Manifest.close m;
  let before = snapshot dir in
  let env = Trex.Env.on_disk dir in
  ignore (Trex.attach ~env ());
  check_untouched "open over resolved history" before dir;
  Trex.Env.close env

(* A query over an env with no materialized list reads the missing
   list catalogs as empty and creates no file: a table created by a
   reader has no committed root until a close, so a reader killed
   before then would leave a table no later open can attach. *)
let test_query_creates_no_file () =
  let dir = temp_dir () in
  let env, _ = build_collection dir ~docs:4 ~seed:25 in
  Trex.Env.close env;
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let before = listing () in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.attach ~env () in
  ignore (Trex.query engine ~k:5 nexi);
  ignore (Trex.query engine ~k:1000 nexi);
  check Alcotest.int "no list cataloged" 0
    (List.length (Trex.Rpl.catalog (Trex.index engine) Trex.Rpl.Rpl));
  check Alcotest.(list string) "same files while open" before (listing ());
  Trex.Env.close env;
  check Alcotest.(list string) "same files after close" before (listing ())

(* ---- list tables start fresh once every list is dropped ---- *)

(* Each cycle adds documents, which moves every score and so the keys
   of the rebuilt lists' chunks, drops every list and rebuilds them.
   The leaves a drop empties are not where the new chunks land, so
   without a fresh start the list tables grow with every cycle. *)
let test_list_tables_reclaimed () =
  let dir = temp_dir () in
  let coll = Trex_corpus.Gen.ieee ~doc_count:200 ~seed:91 () in
  let docs = Array.of_seq (coll.docs ()) in
  let env = Trex.Env.on_disk dir in
  let engine = Trex.build ~env ~alias:coll.alias (Array.to_seq (Array.sub docs 0 100)) in
  let index = Trex.index engine in
  let queries =
    List.map
      (fun id -> (Trex_corpus.Queries.find id).Trex_corpus.Queries.nexi)
      [ "202"; "203"; "233"; "270" ]
  in
  let rematerialize () = List.iter (fun q -> ignore (Trex.materialize engine q)) queries in
  let list_bytes () =
    List.fold_left
      (fun acc kind ->
        acc + Env.table_bytes env (Rpl.table_name kind) + Env.table_bytes env (Rpl.catalog_name kind))
      0 [ Rpl.Rpl; Rpl.Erpl ]
  in
  rematerialize ();
  let one_build = list_bytes () in
  for cycle = 0 to 19 do
    for i = 0 to 4 do
      let name, xml = docs.(100 + (cycle * 5) + i) in
      ignore (Trex.add_document engine ~name ~xml)
    done;
    List.iter (Rpl.drop_all index) [ Rpl.Rpl; Rpl.Erpl ];
    rematerialize ()
  done;
  check Alcotest.bool
    (Printf.sprintf "20 rebuilds hold %d bytes, the first build %d" (list_bytes ()) one_build)
    true
    (list_bytes () <= 2 * one_build);
  Trex.Env.close env

let () =
  Alcotest.run "trex_manifest"
    [
      ( "framing",
        [
          Alcotest.test_case "record roundtrip + reopen" `Quick test_roundtrip;
          Alcotest.test_case "pending classification" `Quick
            test_pending_classification;
          Alcotest.test_case "pending after many resolved" `Quick
            test_pending_after_many_resolved;
          Alcotest.test_case "torn tail matrix" `Quick test_torn_tail_matrix;
          Alcotest.test_case "corrupt frame skipped" `Quick
            test_corrupt_frame_skipped;
          Alcotest.test_case "compact to checkpoint" `Quick test_compact_checkpoint;
        ] );
      ( "format",
        [
          Alcotest.test_case "other manifest versions refused" `Quick
            test_other_manifest_versions_refused;
          Alcotest.test_case "other index formats refused" `Quick
            test_other_index_formats_refused;
          Alcotest.test_case "missing index refused" `Quick test_missing_index_refused;
          Alcotest.test_case "resolved history opens without writing" `Quick
            test_resolved_history_open_writes_nothing;
          Alcotest.test_case "a query creates no file" `Quick test_query_creates_no_file;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "run_logged_op applies steps" `Quick
            test_run_logged_op_applies;
          Alcotest.test_case "replay creates a rootless table" `Quick
            test_replay_creates_rootless_table;
          Alcotest.test_case "failed apply applied first" `Quick
            test_failed_apply_applied_first;
          Alcotest.test_case "manifest compacts at open" `Quick
            test_manifest_compacts_at_open;
          Alcotest.test_case "dir fsync after unlink" `Quick
            test_drop_table_syncs_directory;
          Alcotest.test_case "list tables reclaimed" `Slow test_list_tables_reclaimed;
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "add_document hook points" `Slow
            test_add_document_crash_matrix;
          Alcotest.test_case "add_document manifest bytes" `Slow
            test_add_document_truncation_matrix;
          Alcotest.test_case "materialize hook points" `Slow
            test_materialize_crash_matrix;
          Alcotest.test_case "advisor apply hook points" `Slow
            test_advisor_apply_crash_matrix;
          Alcotest.test_case "drop_all hook points" `Slow test_drop_all_crash_matrix;
          Alcotest.test_case "checkpoint hook points" `Slow test_checkpoint_crash_matrix;
          Alcotest.test_case "add past the frame limit" `Slow test_oversized_add_recovers;
        ] );
      ( "generations",
        [
          Alcotest.test_case "heal interruption converges" `Quick
            test_heal_interrupted_converges;
          Alcotest.test_case "unresolved op blocks generation" `Quick
            test_unresolved_blocks_generation;
        ] );
    ]
