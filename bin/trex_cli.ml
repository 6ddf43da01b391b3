(* trex_cli: command-line front end to the TReX engine.

   Subcommands:
     gen          generate a synthetic collection into a directory of XML files
     index        build an on-disk index over a directory of XML files
     add          incrementally index one more document
     query        evaluate a NEXI query against an index
     materialize  build the RPL/ERPL lists a query needs
     stats        show index sizes, summary info and materialized lists
     advise       plan index selection for a workload under a disk budget
     vacuum       compact the redundant-index tables
     verify       checksum-sweep and structurally verify every table
     health       probe tables, trip breakers, report resilience state
     journal      inspect the persistent query journal (tail|profile|slow)
     autopilot    replay the journal into the advisor and replan
     xpath        evaluate an XPath expression over an XML file
     shard        sharded coordinator: create | query | health | rebalance
     serve        network front door: admission control + graceful drain
     client       query a serve daemon over TCP

   Exit codes: 0 ok; 1 generic failure; 2 verify found corruption or an
   unresolvable manifest operation (also shard health with quarantined
   shards); 3 query answered degraded (budget expired, or a sharded
   query missing shards); 4 health found an open circuit breaker; 5
   autopilot had too few journaled observations to replan; 6 the serve
   daemon shed the request (admission control); 7 the serve daemon is
   draining or unreachable. An environment in a format this build does
   not read (an older or newer manifest magic, or a [meta] [format] key
   other than this build's) is refused by every subcommand, [verify]
   included, with one stderr line naming the format found and the one
   expected, and exit 1; nothing is written. So is a path that holds no
   index, by every subcommand that reads one: one "no index at" line,
   exit 1, and no directory or file created.

   Example session:
     dune exec bin/trex_cli.exe -- gen --collection ieee --docs 100 --out /tmp/docs
     dune exec bin/trex_cli.exe -- index --src /tmp/docs --env /tmp/trexdb --alias ieee
     dune exec bin/trex_cli.exe -- query --env /tmp/trexdb -k 5 \
       "//article//sec[about(., information retrieval)]"
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* ---- shared options ----

   Counts and fixed choices are parsed by Cmdliner, so a bad value is a
   usage error (exit 124), reported before anything is opened. *)

let positive_int =
  Arg.conv ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))),
      Format.pp_print_int )

let k_arg = Arg.(value & opt positive_int 10 & info [ "k" ] ~doc:"answers to return")

let method_arg =
  let methods =
    List.map
      (fun m -> (String.lowercase_ascii (Trex.Strategy.method_to_string m), m))
      Trex.Strategy.all_methods
  in
  Arg.(value & opt (some (enum methods)) None & info [ "method" ] ~doc:"era|ta|ita|merge")

let alias_arg =
  Arg.(value
       & opt (enum [ ("ieee", `Ieee); ("wiki", `Wiki); ("none", `None) ]) `None
       & info [ "alias" ] ~doc:"ieee, wiki or none")

let alias_of_name = function
  | `Ieee -> (Trex_corpus.Gen.ieee ~doc_count:1 ()).alias
  | `Wiki -> (Trex_corpus.Gen.wikipedia ~doc_count:1 ()).alias
  | `None -> Trex.Alias.identity

(* ---- gen ---- *)

let gen_cmd =
  let collection =
    Arg.(value
         & opt (enum [ ("ieee", `Ieee); ("wiki", `Wiki) ]) `Ieee
         & info [ "collection" ] ~doc:"ieee or wiki")
  in
  let docs = Arg.(value & opt int 100 & info [ "docs" ] ~doc:"number of documents") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"generator seed") in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~doc:"output directory") in
  let run collection docs seed out =
    let coll =
      match collection with
      | `Ieee -> Trex_corpus.Gen.ieee ~doc_count:docs ~seed ()
      | `Wiki -> Trex_corpus.Gen.wikipedia ~doc_count:docs ~seed ()
    in
    if not (Sys.file_exists out) then Unix.mkdir out 0o755;
    Seq.iter (fun (name, xml) -> write_file (Filename.concat out name) xml) (coll.docs ());
    Printf.printf "wrote %d documents to %s\n" docs out
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic XML collection")
    Term.(const run $ collection $ docs $ seed $ out)

(* ---- index ---- *)

let env_arg =
  Arg.(required & opt (some string) None & info [ "env" ] ~doc:"index directory")

let index_cmd =
  let src =
    Arg.(required & opt (some string) None & info [ "src" ] ~doc:"directory of .xml files")
  in
  let summary =
    let parse = function
      | "incoming" -> Ok Trex.Summary.Incoming
      | "tag" -> Ok Trex.Summary.Tag
      | s -> (
          match
            if String.length s >= 2 && s.[0] = 'a' then
              int_of_string_opt (String.sub s 1 (String.length s - 1))
            else None
          with
          | Some k when k >= 1 -> Ok (Trex.Summary.A_k k)
          | _ -> Error (`Msg (Printf.sprintf "unknown summary %S" s)))
    in
    let print fmt = function
      | Trex.Summary.Incoming -> Format.pp_print_string fmt "incoming"
      | Trex.Summary.Tag -> Format.pp_print_string fmt "tag"
      | Trex.Summary.A_k k -> Format.fprintf fmt "a%d" k
    in
    Arg.(value & opt (conv (parse, print)) Trex.Summary.Incoming
         & info [ "summary" ] ~doc:"incoming, tag, or aK (e.g. a2) for an A(k)-index")
  in
  let run src env alias criterion =
    let files =
      Sys.readdir src |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".xml")
      |> List.sort String.compare
    in
    if files = [] then failwith ("no .xml files in " ^ src);
    let docs =
      List.to_seq files
      |> Seq.map (fun f -> (f, read_file (Filename.concat src f)))
    in
    let storage = Trex.Env.on_disk env in
    let t0 = Unix.gettimeofday () in
    let engine =
      Trex.build ~env:storage ~summary_criterion:criterion
        ~alias:(alias_of_name alias) docs
    in
    let stats = Trex.Index.stats (Trex.index engine) in
    Trex.Env.close storage;
    Printf.printf "indexed %d documents (%d elements, %d terms) into %s in %.1fs\n"
      stats.doc_count stats.element_count stats.term_count env
      (Unix.gettimeofday () -. t0)
  in
  Cmd.v (Cmd.info "index" ~doc:"Build an index over XML files")
    Term.(const run $ src $ env_arg $ alias_arg $ summary)

(* ---- query ---- *)

(* A malformed query is the caller's error, not an internal one: one
   line on stderr and exit 1. *)
let syntax_error cmd ~message ~pos =
  Printf.eprintf "trex %s: syntax error at byte %d: %s\n" cmd pos message;
  exit 1

let query_cmd =
  let nexi = Arg.(required & pos 0 (some string) None & info [] ~docv:"NEXI") in
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"strict interpretation") in
  let structured =
    Arg.(value & flag & info [ "structured" ] ~doc:"full NEXI semantics")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"print a tree of timed spans after the answers")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"write the query's span forest as Chrome trace-event JSON \
                   to $(docv) (open in chrome://tracing or Perfetto); \
                   implies span collection")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"wall-clock budget; on expiry return best-effort answers \
                   tagged DEGRADED (exit 3)")
  in
  let page_budget =
    Arg.(value & opt (some int) None
         & info [ "page-budget" ]
             ~doc:"physical page-read budget; on exhaustion return \
                   best-effort answers tagged DEGRADED (exit 3)")
  in
  let journal =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"append a telemetry record for this query to the env's \
                   persistent journal (inspect with the journal subcommand)")
  in
  let run env nexi k method_ strict structured trace trace_out deadline_ms
      page_budget journal =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    if trace || trace_out <> None then Trex.Obs.Span.set_enabled true;
    if journal then Trex.Obs.Journal.set_enabled true;
    let outcome =
      try
        if structured then
          Trex.query_structured engine ~k ?deadline_ms ?page_budget nexi
        else
          Trex.query engine ~k
            ?method_
            ~strict ?deadline_ms ?page_budget nexi
      with Trex_nexi.Parser.Syntax_error { message; pos } ->
        Trex.Env.close storage;
        syntax_error "query" ~message ~pos
    in
    Printf.printf "%s: %d answers in %.2f ms (%s)\n"
      (Trex.Strategy.method_to_string outcome.strategy.method_used)
      (List.length outcome.strategy.answers)
      (outcome.strategy.elapsed_seconds *. 1000.0)
      outcome.strategy.detail;
    List.iter
      (fun (f : Trex.Strategy.failover) ->
        Printf.printf "fallback: %s failed (%s)\n"
          (Trex.Strategy.method_to_string f.failed)
          f.error)
      outcome.fallbacks;
    List.iter
      (fun (h : Trex.hit) ->
        Printf.printf "%2d. [%.4f] %s %s\n    %s\n" h.rank h.score h.doc_name h.xpath
          h.snippet)
      (Trex.hits engine ~limit:k outcome.strategy.answers);
    if outcome.degraded then
      Printf.printf
        "DEGRADED: budget expired; answers are a sound but possibly-partial \
         prefix\n";
    if trace then begin
      Printf.printf "trace:\n";
      Format.printf "%a@." Trex.Obs.Span.pp_tree (Trex.Obs.Span.roots ())
    end;
    (match trace_out with
    | Some path ->
        Trex.Obs.Export.write path
          [
            {
              Trex.Obs.Export.p_pid = Unix.getpid ();
              p_name = "trex";
              p_spans = Trex.Obs.Span.roots ();
            };
          ];
        Printf.printf "trace written to %s\n" path
    | None -> ());
    if journal then
      Printf.printf "journaled to %s (%d record(s) on file)\n"
        (Option.value ~default:"<memory>" (Trex.Env.journal_path storage))
        (Trex.Obs.Journal.length (Trex.Env.journal storage));
    Trex.Env.close storage;
    if outcome.degraded then exit 3
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a NEXI query")
    Term.(const run $ env_arg $ nexi $ k_arg $ method_arg $ strict $ structured $ trace
          $ trace_out $ deadline_ms $ page_budget $ journal)

(* ---- materialize ---- *)

let materialize_cmd =
  let nexi = Arg.(required & pos 0 (some string) None & info [] ~docv:"NEXI") in
  let kinds =
    Arg.(value
         & opt
             (enum
                [
                  ("rpl", [ Trex.Rpl.Rpl ]);
                  ("erpl", [ Trex.Rpl.Erpl ]);
                  ("both", [ Trex.Rpl.Rpl; Trex.Rpl.Erpl ]);
                ])
             [ Trex.Rpl.Rpl; Trex.Rpl.Erpl ]
         & info [ "kind" ] ~doc:"rpl, erpl or both")
  in
  let run env nexi kinds =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    let report = Trex.materialize engine ~kinds nexi in
    Printf.printf "built %d lists (%d entries, ~%d bytes); %d already existed\n"
      (List.length report.pairs_built)
      report.entries_written report.bytes_estimate report.pairs_reused;
    Trex.Env.close storage
  in
  Cmd.v
    (Cmd.info "materialize" ~doc:"Materialize the RPL/ERPL lists a query needs")
    Term.(const run $ env_arg $ nexi $ kinds)

(* ---- vacuum ---- *)

let vacuum_cmd =
  let run env =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    let before = Trex.table_sizes engine in
    Trex.vacuum engine;
    let after = Trex.table_sizes engine in
    Printf.printf "RPLs %d -> %d bytes, ERPLs %d -> %d bytes\n" before.rpls_bytes
      after.rpls_bytes before.erpls_bytes after.erpls_bytes;
    Trex.Env.close storage
  in
  Cmd.v
    (Cmd.info "vacuum" ~doc:"Compact the redundant-index tables, reclaiming dropped space")
    Term.(const run $ env_arg)

(* ---- verify ---- *)

let verify_cmd =
  let recover =
    Arg.(value & flag
         & info [ "recover" ]
             ~doc:
               "Fall back to the older committed header epoch where the \
                newest slot is damaged, and reinitialize tables whose \
                creation never committed")
  in
  let run env recover =
    let storage, reports =
      if recover then Trex.Env.open_with_recovery env
      else
        let s = Trex.Env.on_disk env in
        (s, Trex.Env.verify s)
    in
    (* A typo'd path must fail, not "verify" an empty environment; the
       open wrote nothing to it. *)
    Trex.Index.require storage;
    (* The format check reads the meta table, so only once it verified:
       a damaged one is reported below as corruption. *)
    if
      List.exists
        (fun (r : Trex.Env.table_report) ->
          r.table = Trex_invindex.Tables.meta_table && r.ok)
        reports
    then Trex.Index.check_format storage;
    List.iter
      (fun (r : Trex.Env.table_report) ->
        let status =
          if not r.ok then "CORRUPT"
          else if r.recovered then "RECOVERED"
          else "OK"
        in
        Printf.printf "%-20s %-10s %6d pages %8d entries\n" r.table status
          r.pages r.entries;
        List.iter (fun n -> Printf.printf "    note: %s\n" n) r.notes;
        List.iter (fun p -> Printf.printf "    problem: %s\n" p) r.problems)
      reports;
    let failures, recoveries =
      List.fold_left
        (fun (f, rcv) (_, (s : Trex_storage.Pager.stats)) ->
          (f + s.checksum_failures, rcv + s.recoveries))
        (0, 0) (Trex.Env.io_stats storage)
    in
    Printf.printf "storage.checksum_failures: %d\nstorage.recoveries: %d\n"
      failures recoveries;
    (* Manifest replay happened at open; report what it did. *)
    let resolutions = Trex.Env.manifest_resolutions storage in
    let count p = List.length (List.filter p resolutions) in
    let fwd =
      count (fun (r : Trex.Env.resolution) -> r.res_ok && r.res_outcome = "rolled forward")
    and back =
      count (fun (r : Trex.Env.resolution) -> r.res_ok && r.res_outcome <> "rolled forward")
    in
    let unresolved = Trex.Env.manifest_unresolved storage in
    Printf.printf "manifest: generation %d, %d op(s) rolled forward, %d rolled back, %d unresolved\n"
      (Trex.Env.generation storage) fwd back unresolved;
    List.iter
      (fun (r : Trex.Env.resolution) ->
        Printf.printf "    op #%d %s: %s\n" r.res_op_id r.res_op r.res_outcome)
      resolutions;
    let bad = List.filter (fun (r : Trex.Env.table_report) -> not r.ok) reports in
    Trex.Env.close storage;
    if bad <> [] || unresolved > 0 then begin
      if bad <> [] then
        Printf.printf "%d table(s) corrupt%s\n" (List.length bad)
          (if recover then "" else " (try --recover)");
      if unresolved > 0 then
        Printf.printf "%d manifest operation(s) unresolvable; their tables are blocked\n"
          unresolved;
      (* exit 2 = corruption found (or an unresolvable manifest op),
         distinct from generic failures (1) *)
      exit 2
    end
    else Printf.printf "all tables verified\n"
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify checksums and B+tree structure of every table in an index")
    Term.(const run $ env_arg $ recover)

(* ---- health ---- *)

let health_cmd =
  let run env =
    let storage = Trex.Env.on_disk env in
    Trex.Index.require storage;
    (* Probe every table so breakers reflect the current state of the
       files, not just what queries happened to touch. *)
    let reports = Trex.Env.verify storage in
    List.iter
      (fun (r : Trex.Env.table_report) ->
        if not r.ok then
          Trex.Env.trip_table storage r.table
            ~reason:(String.concat "; " r.problems))
      reports;
    Printf.printf "tables:\n";
    List.iter
      (fun (r : Trex.Env.table_report) ->
        Printf.printf "  %-20s %-7s %6d pages %8d entries\n" r.table
          (if r.ok then "OK" else "CORRUPT")
          r.pages r.entries)
      reports;
    Printf.printf "manifest:\n";
    Printf.printf "  generation %d\n" (Trex.Env.generation storage);
    let blocked =
      List.filter (Trex.Env.table_blocked storage)
        (List.sort_uniq compare (Trex.Env.table_names storage))
    in
    (match Trex.Env.manifest_resolutions storage with
    | [] -> Printf.printf "  (no operations replayed at open)\n"
    | rs ->
        List.iter
          (fun (r : Trex.Env.resolution) ->
            Printf.printf "  op #%d %-16s %s\n" r.res_op_id r.res_op r.res_outcome)
          rs);
    if blocked <> [] then
      Printf.printf "  blocked tables: %s\n" (String.concat " " blocked);
    Printf.printf "breakers:\n";
    let states = Trex.Env.breaker_states storage in
    if states = [] then Printf.printf "  (none tripped)\n"
    else
      List.iter
        (fun (name, state) ->
          let b = Trex.Env.breaker storage name in
          Printf.printf "  %-20s %-9s%s\n" name
            (Trex.Breaker.state_to_string state)
            (match Trex.Breaker.last_reason b with
            | Some r -> " last: " ^ r
            | None -> ""))
        states;
    Printf.printf "resilience counters:\n";
    let v name = Trex.Obs.Metrics.value (Trex.Obs.Metrics.counter name) in
    List.iter
      (fun name -> Printf.printf "  %-32s %d\n" name (v name))
      [
        "resilience.breaker_trips";
        "resilience.breaker_closes";
        "resilience.degraded_runs";
        "resilience.fallbacks";
        "resilience.deadline_exceeded";
        "resilience.page_budget_exceeded";
        "resilience.rebuilds";
        "env.quarantines";
        "manifest.rolled_forward";
        "manifest.rolled_back";
        "manifest.unresolved";
      ];
    let open_breakers =
      List.filter (fun (_, s) -> s <> Trex.Breaker.Closed) states
    in
    Trex.Env.close storage;
    if open_breakers <> [] then begin
      Printf.printf "%d breaker(s) open\n" (List.length open_breakers);
      exit 4
    end
    else Printf.printf "healthy\n"
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe every table, trip circuit breakers on damage, and report \
          breaker states and resilience counters (exit 4 if any breaker is \
          open)")
    Term.(const run $ env_arg)

(* ---- journal ---- *)

(* Shared loader: a typo'd env path or a journal-less env is a user
   error (exit 1), not a reason to mint an empty journal. A shard
   coordinator directory is an env too: its journal holds what shard
   query --journal wrote. *)
let load_journal_records cmd env =
  let storage = Trex.Env.on_disk env in
  if not (Trex.Env.has_journal storage) then begin
    Printf.eprintf
      "trex %s: no query journal in %s (run queries with --journal first)\n"
      cmd env;
    Trex.Env.close storage;
    exit 1
  end;
  let records = Trex.Obs.Journal.records (Trex.Env.journal storage) in
  Trex.Env.close storage;
  records

let journal_tail_cmd =
  let n =
    Arg.(value & opt int 20
         & info [ "n"; "last" ] ~doc:"number of records to show")
  in
  let run env n =
    let records = load_journal_records "journal tail" env in
    let total = List.length records in
    let skip = max 0 (total - n) in
    Printf.printf "%d record(s) journaled; showing last %d\n" total
      (total - skip);
    List.iteri
      (fun i r -> if i >= skip then Format.printf "%a@." Trex.Obs.Journal.pp_record r)
      records
  in
  Cmd.v
    (Cmd.info "tail" ~doc:"Show the most recent journal records")
    Term.(const run $ env_arg $ n)

let journal_profile_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"emit JSON") in
  let run env json =
    let records = load_journal_records "journal profile" env in
    let profile = Trex.Obs.Profile.of_records records in
    if json then
      print_endline (Trex.Obs.Json.to_string (Trex.Obs.Profile.to_json profile))
    else Format.printf "%a@." Trex.Obs.Profile.pp profile
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Aggregate the journal into per-query and per-strategy latency \
          percentiles and shares")
    Term.(const run $ env_arg $ json)

let journal_slow_cmd =
  let n =
    Arg.(value & opt int 10
         & info [ "n"; "last" ] ~doc:"number of slow queries to show")
  in
  let run env n =
    let records = load_journal_records "journal slow" env in
    let slow =
      Trex.Obs.Profile.slowest (Trex.Obs.Profile.of_records ~slow_capacity:n records)
    in
    Printf.printf "%d slowest of %d journaled record(s)\n" (List.length slow)
      (List.length records);
    List.iter (fun r -> Format.printf "%a@." Trex.Obs.Journal.pp_record r) slow
  in
  Cmd.v
    (Cmd.info "slow" ~doc:"Show the slowest journaled queries")
    Term.(const run $ env_arg $ n)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Inspect the persistent query journal (written by query --journal)")
    [ journal_tail_cmd; journal_profile_cmd; journal_slow_cmd ]

(* ---- autopilot ---- *)

let autopilot_cmd =
  let budget =
    Arg.(required & opt (some int) None
         & info [ "budget" ] ~doc:"disk budget in bytes")
  in
  let min_observations =
    Arg.(value & opt int 20
         & info [ "min-observations" ]
             ~doc:"journaled executions required before planning (exit 5 below)")
  in
  let run env budget min_observations =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    if not (Trex.Env.has_journal storage) then begin
      Printf.eprintf
        "trex autopilot: no query journal in %s (run queries with --journal \
         first)\n"
        env;
      Trex.Env.close storage;
      exit 1
    end;
    let records = Trex.Obs.Journal.records (Trex.Env.journal storage) in
    let pilot =
      Trex.Autopilot.create (Trex.index engine) ~scoring:(Trex.scoring engine)
        ~budget ~min_observations ()
    in
    let absorbed = Trex.Autopilot.absorb_journal pilot records in
    Printf.printf "absorbed %d journaled queries (%d distinct, %d unparsable skipped)\n"
      absorbed
      (List.length (Trex.Autopilot.observed_frequencies pilot))
      (List.length records - absorbed);
    let verdict = Trex.Autopilot.maybe_replan pilot in
    Format.printf "%a@." Trex.Autopilot.pp_verdict verdict;
    (match verdict with
    | Trex.Autopilot.Replanned { plan; _ } ->
        List.iter
          (fun (id, choice) ->
            Printf.printf "  %-10s -> %s\n" id
              (Trex.Advisor.choice_to_string choice))
          plan.decisions
    | _ -> ());
    Trex.Env.close storage;
    match verdict with
    | Trex.Autopilot.Too_few_observations _ -> exit 5
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "autopilot"
       ~doc:
         "Replay the query journal into the advisor and replan the redundant \
          indexes for the workload actually served; each run plans afresh \
          (exit 5 when the journal holds too few observations)")
    Term.(const run $ env_arg $ budget $ min_observations)

(* ---- xpath ---- *)

let xpath_cmd =
  let file = Arg.(required & opt (some string) None & info [ "file" ] ~doc:"XML file") in
  let expr = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH") in
  let values = Arg.(value & flag & info [ "values" ] ~doc:"print string-values") in
  let run file expr values =
    let doc = Trex_xml.Dom.parse (read_file file) in
    let idx = Trex_xpath.Xpath_eval.of_doc doc in
    let path = Trex_xpath.Xpath_parser.parse expr in
    if values then
      List.iter print_endline (Trex_xpath.Xpath_eval.select_values idx path)
    else begin
      let results = Trex_xpath.Xpath_eval.select idx path in
      Printf.printf "%d elements\n" (List.length results);
      List.iteri
        (fun i (e : Trex_xml.Dom.element) ->
          let text = Trex_xml.Dom.text_content e in
          let text =
            if String.length text > 60 then String.sub text 0 60 ^ "..." else text
          in
          Printf.printf "%3d. <%s> bytes %d-%d: %s\n" (i + 1) e.tag e.start_pos
            e.end_pos text)
        results
    end
  in
  Cmd.v
    (Cmd.info "xpath" ~doc:"Evaluate an XPath expression over an XML file")
    Term.(const run $ file $ expr $ values)

(* ---- add ---- *)

let add_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.xml") in
  let run env file =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    let docid =
      try Trex.add_document engine ~name:(Filename.basename file) ~xml:(read_file file)
      with Invalid_argument reason ->
        (* A coordinator's shard: adding here would collide with the
           next shard's docids. *)
        Printf.eprintf "trex add: %s\n" reason;
        exit 1
    in
    Printf.printf "indexed %s as document %d (affected RPL/ERPL lists dropped)\n"
      file docid;
    Trex.Env.close storage
  in
  Cmd.v
    (Cmd.info "add" ~doc:"Incrementally index one more XML document")
    Term.(const run $ env_arg $ file)

(* ---- stats ---- *)

let stats_cmd =
  let run env =
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    let stats = Trex.Index.stats (Trex.index engine) in
    let sizes = Trex.table_sizes engine in
    Printf.printf "documents: %d  elements: %d  terms: %d  postings: %d\n"
      stats.doc_count stats.element_count stats.term_count stats.posting_count;
    Printf.printf "summary: %d nodes (%s)\n"
      (Trex.Summary.node_count (Trex.summary engine))
      (match Trex.Summary.criterion (Trex.summary engine) with
      | Trex.Summary.Incoming -> "incoming"
      | Trex.Summary.Tag -> "tag"
      | Trex.Summary.A_k k -> Printf.sprintf "a(%d)" k);
    Printf.printf "Elements: %d bytes  PostingLists: %d bytes\n" sizes.elements_bytes
      sizes.postings_bytes;
    Printf.printf "RPLs: %d bytes  ERPLs: %d bytes\n" sizes.rpls_bytes sizes.erpls_bytes;
    let show kind name =
      let lists = Trex.Rpl.catalog (Trex.index engine) kind in
      Printf.printf "%s lists: %d\n" name (List.length lists);
      List.iter
        (fun (term, sid, entries, bytes) ->
          Printf.printf "  %-20s sid %-6d %6d entries %8d bytes\n" term sid entries
            bytes)
        lists
    in
    show Trex.Rpl.Rpl "RPL";
    show Trex.Rpl.Erpl "ERPL";
    (* Everything the registry saw while this process attached and read
       the catalogs: pager cache traffic plus the per-strategy run
       counters (zero until queries run in this process). *)
    Printf.printf "observability:\n";
    Format.printf "  @[<v>%a@]@." Trex.Obs.Metrics.pp ();
    Trex.Env.close storage
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show index statistics") Term.(const run $ env_arg)

(* ---- advise ---- *)

(* Workload file: one query per line, "frequency <TAB> k <TAB> nexi";
   a query's id is "q<line number>". A malformed file is the caller's
   error: one line on stderr and exit 1, before any env is opened. *)
let parse_workload path =
  let refuse fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "trex advise: %s\n" m; exit 1) fmt
  in
  let lines = String.split_on_char '\n' (read_file path) in
  let queries =
    List.concat
      (List.mapi
         (fun i line ->
           let n = i + 1 in
           let line = String.trim line in
           if line = "" || line.[0] = '#' then []
           else
             match List.map String.trim (String.split_on_char '\t' line) with
             | [ f; k; nexi ] ->
                 (* A non-positive k or frequency is [Workload.create]'s
                    to refuse. *)
                 let k =
                   match int_of_string_opt k with
                   | Some k -> k
                   | None -> refuse "line %d: k %S is not an integer" n k
                 in
                 let frequency =
                   match float_of_string_opt f with
                   | Some f when Float.is_finite f -> f
                   | _ -> refuse "line %d: frequency %S is not a number" n f
                 in
                 [ { Trex.Workload.id = Printf.sprintf "q%d" n; nexi; k; frequency } ]
             | fields ->
                 refuse "line %d: %d tab-separated fields, expected frequency, k and NEXI"
                   n (List.length fields))
         lines)
  in
  try Trex.Workload.create queries with
  | Trex_nexi.Parser.Syntax_error { message; pos } -> syntax_error "advise" ~message ~pos
  | Invalid_argument message -> refuse "%s: %s" path message

let advise_cmd =
  let workload =
    Arg.(required & opt (some string) None
         & info [ "workload" ] ~doc:"workload file: frequency<TAB>k<TAB>nexi per line")
  in
  let budget =
    Arg.(required & opt (some int) None & info [ "budget" ] ~doc:"disk budget in bytes")
  in
  let optimal = Arg.(value & flag & info [ "optimal" ] ~doc:"use branch-and-bound") in
  let apply = Arg.(value & flag & info [ "apply" ] ~doc:"materialize the plan") in
  let run env workload budget optimal apply =
    let w = parse_workload workload in
    let storage = Trex.Env.on_disk env in
    let engine = Trex.attach ~env:storage () in
    let plan, profiles = Trex.advise engine ~workload:w ~budget ~optimal () in
    List.iter
      (fun (p : Trex.Cost.profile) ->
        Printf.printf "%-6s f=%.2f ERA %.2fms Merge %.2fms TA %.2fms\n" p.id
          p.frequency (p.time_era *. 1e3) (p.time_merge *. 1e3) (p.time_ta *. 1e3))
      profiles;
    Printf.printf "plan (%s): %d bytes, expected saving %.2f ms per query\n"
      (if optimal then "optimal" else "greedy")
      plan.bytes_used
      (plan.expected_saving *. 1e3);
    List.iter
      (fun (id, choice) ->
        Printf.printf "  %-6s -> %s\n" id (Trex.Advisor.choice_to_string choice))
      plan.decisions;
    if apply then begin
      Trex.Advisor.apply (Trex.index engine) ~scoring:(Trex.scoring engine) ~workload:w
        plan;
      Printf.printf "plan applied.\n"
    end;
    Trex.Env.close storage
  in
  Cmd.v (Cmd.info "advise" ~doc:"Plan index selection for a workload")
    Term.(const run $ env_arg $ workload $ budget $ optimal $ apply)

(* ---- shard ---- *)

module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor

let shard_dir_arg =
  Arg.(required & opt (some string) None
       & info [ "dir" ] ~doc:"shard coordinator directory")

let shard_create_cmd =
  let src =
    Arg.(required & opt (some string) None & info [ "src" ] ~doc:"directory of .xml files")
  in
  let shards =
    Arg.(value & opt positive_int 2 & info [ "shards" ] ~doc:"number of shards")
  in
  let run src dir shards alias =
    let files =
      Sys.readdir src |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".xml")
      |> List.sort String.compare
    in
    if files = [] then failwith ("no .xml files in " ^ src);
    let docs = List.map (fun f -> (f, read_file (Filename.concat src f))) files in
    let t0 = Unix.gettimeofday () in
    let t = Shard.create ~dir ~shards ~alias:(alias_of_name alias) docs in
    List.iter
      (fun (i : Shard.shard_info) ->
        Printf.printf "%s: docids %d..%d (%d documents)\n" i.name i.base
          (i.base + i.docs - 1) i.docs)
      (Shard.shards t);
    Shard.close t;
    Printf.printf "sharded %d documents into %d shards under %s in %.1fs\n"
      (List.length docs) shards dir
      (Unix.gettimeofday () -. t0)
  in
  Cmd.v (Cmd.info "create" ~doc:"Partition a collection into shard indexes")
    Term.(const run $ src $ shard_dir_arg $ shards $ alias_arg)

let shard_query_cmd =
  let nexi = Arg.(required & pos 0 (some string) None & info [] ~docv:"NEXI") in
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"strict interpretation") in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"wall-clock budget for the whole scatter-gather; shards \
                   reached after expiry are skipped (exit 3)")
  in
  let page_budget =
    Arg.(value & opt (some int) None
         & info [ "page-budget" ] ~doc:"page-read budget for the whole query (exit 3)")
  in
  let process =
    Arg.(value & flag
         & info [ "process" ]
             ~doc:"run each shard in its own supervised worker process \
                   (crash containment: a dying shard degrades the answer \
                   instead of the coordinator)")
  in
  let fanout =
    Arg.(value & opt (some int) None
         & info [ "fanout" ]
             ~doc:"with $(b,--process): scatter wave size (default: all shards)")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"print the merged span tree after the answers; with \
                   $(b,--process) the workers' spans are harvested over the \
                   wire and grafted under each supervisor.worker span")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"write the merged span forest as Chrome trace-event JSON \
                   to $(docv); with $(b,--process) each worker's subtree \
                   lands on its own process track; implies span collection")
  in
  let journal =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"journal this query: one coordinator record, with a \
                   per-shard breakdown, in DIR/query_journal.qj")
  in
  let run dir nexi k method_ strict deadline_ms page_budget process fanout
      trace trace_out journal =
    let want_trace = trace || trace_out <> None in
    if want_trace then Trex.Obs.Span.set_enabled true;
    if journal then Trex.Obs.Journal.set_enabled true;
    let r =
      try
        if process then begin
          let s = Supervisor.create dir in
          Fun.protect
            ~finally:(fun () -> Supervisor.close s)
            (fun () ->
              ignore (Supervisor.await_healthy s);
              Supervisor.query s ~k ?method_ ~strict ?deadline_ms ?page_budget
                ?fanout nexi)
        end
        else begin
          let t = Shard.open_ dir in
          Fun.protect
            ~finally:(fun () -> Shard.close t)
            (fun () -> Shard.query t ~k ?method_ ~strict ?deadline_ms ?page_budget nexi)
        end
      with Trex_nexi.Parser.Syntax_error { message; pos } ->
        syntax_error "shard query" ~message ~pos
    in
    Printf.printf "%d answers from %d shard(s)\n" (List.length r.answers)
      (List.length r.reports);
    List.iter
      (fun (s : Shard.shard_report) ->
        Printf.printf "  %s: %s %d entries %.2f ms kept=%d floor=%.4f\n" s.r_shard
          (match s.r_method with
          | Some m -> Trex.Strategy.method_to_string m
          | None -> "-")
          s.r_entries_read
          (s.r_elapsed_seconds *. 1000.0)
          s.r_kept s.r_floor)
      r.reports;
    List.iter
      (fun (s : Shard.shard_report) ->
        List.iter
          (fun (f : Trex.Strategy.failover) ->
            Printf.printf "fallback: %s %s failed (%s)\n" s.r_shard
              (Trex.Strategy.method_to_string f.failed)
              f.error)
          s.r_fallbacks)
      r.reports;
    List.iteri
      (fun i (e : Trex.Answer.entry) ->
        Printf.printf "%2d. [%.4f] doc=%d sid=%d end=%d\n" (i + 1) e.score
          e.element.Trex.Types.docid e.element.Trex.Types.sid
          e.element.Trex.Types.endpos)
      r.answers;
    if r.degraded then begin
      Printf.printf "DEGRADED: answers are a sound ranking of the surviving shards\n";
      List.iter
        (fun (name, reason) -> Printf.printf "  missing %s: %s\n" name reason)
        r.degraded_shards
    end;
    if trace then begin
      Printf.printf "trace:\n";
      Format.printf "%a@." Trex.Obs.Span.pp_tree (Trex.Obs.Span.roots ())
    end;
    (match trace_out with
    | Some path ->
        Trex.Obs.Export.write path
          [
            {
              Trex.Obs.Export.p_pid = Unix.getpid ();
              p_name = (if process then "trex coordinator" else "trex");
              p_spans = Trex.Obs.Span.roots ();
            };
          ];
        Printf.printf "trace written to %s\n" path
    | None -> ());
    if journal then
      Printf.printf "journaled to %s\n" (Filename.concat dir "query_journal.qj");
    if r.degraded then exit 3
  in
  Cmd.v (Cmd.info "query" ~doc:"Scatter-gather a NEXI query across the shards")
    Term.(const run $ shard_dir_arg $ nexi $ k_arg $ method_arg $ strict $ deadline_ms
          $ page_budget $ process $ fanout $ trace $ trace_out $ journal)

let shard_health_cmd =
  let workers =
    Arg.(value & flag
         & info [ "workers" ]
             ~doc:"also spawn the process supervisor and report the worker \
                   table (state, pid, restarts, breaker, heartbeat age)")
  in
  let run dir workers =
    let t = Shard.open_ dir in
    let rows = Shard.health t in
    List.iter
      (fun (h : Shard.health) ->
        Printf.printf "%s: docids %d..%d %s breaker=%s%s\n" h.h_shard h.h_base
          (h.h_base + h.h_docs - 1)
          (if h.h_attached then "attached" else "QUARANTINED")
          (Trex.Breaker.state_to_string h.h_breaker)
          (match h.h_note with Some n -> " (" ^ n ^ ")" | None -> ""))
      rows;
    let quarantined = List.exists (fun (h : Shard.health) -> not h.h_attached) rows in
    let open_breaker =
      List.exists (fun (h : Shard.health) -> h.h_breaker = Trex.Breaker.Open) rows
    in
    Shard.close t;
    let workers_unhealthy =
      if not workers then false
      else begin
        let s = Supervisor.create dir in
        Fun.protect
          ~finally:(fun () -> Supervisor.close s)
          (fun () ->
            let healthy = Supervisor.await_healthy s in
            Printf.printf "workers:\n";
            List.iter
              (fun (h : Supervisor.worker_health) ->
                Printf.printf
                  "  %s: state=%s pid=%s restarts=%d/%d-lifetime breaker=%s \
                   beat=%s\n"
                  h.w_shard
                  (match h.w_state with
                  | Supervisor.Starting -> "starting"
                  | Supervisor.Ready -> "ready"
                  | Supervisor.Busy -> "busy"
                  | Supervisor.Stopped -> "stopped"
                  | Supervisor.Escalated -> "escalated")
                  (match h.w_pid with Some p -> string_of_int p | None -> "-")
                  h.w_restarts h.w_total_restarts
                  (Trex.Breaker.state_to_string h.w_breaker)
                  (match h.w_beat_age_s with
                  | Some a -> Printf.sprintf "%.1fs" a
                  | None -> "-"))
              (Supervisor.health s);
            not healthy)
      end
    in
    if quarantined then exit 2
    else if open_breaker || workers_unhealthy then exit 4
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Report shard map, attachment and breaker state (exit 2 quarantined, 4 open breaker; with --workers, also the supervised worker-process table)")
    Term.(const run $ shard_dir_arg $ workers)

let shard_rebalance_cmd =
  let split =
    Arg.(value & opt (some string) None & info [ "split" ] ~doc:"shard to split in two")
  in
  let merge =
    Arg.(value & opt (some string) None
         & info [ "merge" ] ~doc:"two adjacent shards to merge, as A,B")
  in
  let crash_at =
    Arg.(value & opt (some string) None
         & info [ "crash-at" ]
             ~doc:"test hook: simulate a crash at this rebalance point (e.g. \
                   rebalance:committed)")
  in
  let run dir split merge crash_at =
    let t = Shard.open_ dir in
    (match crash_at with
    | Some point ->
        Shard.set_op_hook t
          (Some
             (fun p ->
               if p = point then
                 raise (Trex_storage.Pager.Injected_crash ("crash-at " ^ point))))
    | None -> ());
    (try
       match (split, merge) with
       | Some name, None ->
           let a, b = Shard.split t name in
           Printf.printf "split %s -> %s (%d docs) + %s (%d docs)\n" name a.name
             a.docs b.name b.docs
       | None, Some pair -> (
           match String.split_on_char ',' pair with
           | [ a; b ] ->
               let m = Shard.merge t (String.trim a) (String.trim b) in
               Printf.printf "merged %s -> %s (%d docs)\n" pair m.name m.docs
           | _ -> failwith "merge expects two shard names: A,B")
       | _ -> failwith "rebalance needs exactly one of --split or --merge"
     with Trex_storage.Pager.Injected_crash note ->
       (* The simulated crash abandons everything unflushed, like the
          real thing; the next open resolves the pending operation. *)
       Shard.abort t;
       Printf.printf "simulated crash: %s\n" note;
       exit 1);
    Shard.close t
  in
  Cmd.v
    (Cmd.info "rebalance"
       ~doc:"Split or merge shards through one crash-atomic shard-map commit")
    Term.(const run $ shard_dir_arg $ split $ merge $ crash_at)

let shard_cmd =
  Cmd.group
    (Cmd.info "shard" ~doc:"Sharded scatter-gather coordinator")
    [ shard_create_cmd; shard_query_cmd; shard_health_cmd; shard_rebalance_cmd ]

(* ---- serve / client: the network front door ---- *)

module Serve = Trex_serve.Serve
module Wire = Trex_shard.Wire

let parse_remotes specs =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
      | None ->
          failwith (Printf.sprintf "--remote expects NAME=HOST:PORT, got %S" spec))
    specs

let serve_cmd =
  let dir =
    Arg.(required & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"index environment, or shard-coordinator directory \
                   (detected by its shard map) served through supervised \
                   worker processes")
  in
  let addr =
    Arg.(value & opt string "127.0.0.1:7690"
         & info [ "addr" ] ~docv:"HOST:PORT"
             ~doc:"listen address (port 0 binds an ephemeral port; the bound \
                   address is printed as SERVING HOST:PORT)")
  in
  let remote =
    Arg.(value & opt_all string []
         & info [ "remote" ] ~docv:"NAME=HOST:PORT"
             ~doc:"serve shard NAME through a long-lived remote worker \
                   (trex shard-worker --listen) instead of a local child; \
                   repeatable")
  in
  let queue_limit =
    Arg.(value & opt int Serve.default_policy.queue_limit
         & info [ "queue-limit" ]
             ~doc:"admitted-but-unstarted requests before new ones are shed")
  in
  let default_deadline_ms =
    Arg.(value & opt float Serve.default_policy.default_deadline_ms
         & info [ "default-deadline-ms" ]
             ~doc:"deadline assigned to requests that carry none")
  in
  let max_deadline_ms =
    Arg.(value & opt float Serve.default_policy.max_deadline_ms
         & info [ "max-deadline-ms" ] ~doc:"clamp on client-requested deadlines")
  in
  let drain_budget_s =
    Arg.(value & opt float Serve.default_policy.drain_budget_s
         & info [ "drain-budget-s" ]
             ~doc:"on SIGTERM, finish or shed queued work within this bound")
  in
  let journal =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"also journal backend query telemetry (shed/drained \
                   requests are always journaled to DIR/serve_journal.qj)")
  in
  let run dir addr remote queue_limit default_deadline_ms max_deadline_ms
      drain_budget_s journal =
    if journal then Trex.Obs.Journal.set_enabled true;
    let policy =
      {
        Serve.default_policy with
        queue_limit;
        default_deadline_ms;
        max_deadline_ms;
        drain_budget_s;
      }
    in
    exit
      (Serve.run ~policy ~remote:(parse_remotes remote)
         ~on_ready:(fun bound -> Printf.printf "SERVING %s\n%!" bound)
         ~dir ~addr ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve an index over TCP with admission control and graceful drain")
    Term.(const run $ dir $ addr $ remote $ queue_limit $ default_deadline_ms
          $ max_deadline_ms $ drain_budget_s $ journal)

let client_cmd =
  let nexi = Arg.(required & pos 0 (some string) None & info [] ~docv:"NEXI") in
  let addr =
    Arg.(required & opt (some string) None
         & info [ "addr" ] ~docv:"HOST:PORT" ~doc:"serve daemon to query")
  in
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"strict interpretation") in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"request deadline shipped to the server (clamped by its \
                   policy); the server sheds rather than queueing past it")
  in
  let page_budget =
    Arg.(value & opt (some int) None
         & info [ "page-budget" ] ~doc:"page-read budget shipped to the server")
  in
  let timeout_s =
    Arg.(value & opt float 30.0
         & info [ "timeout-s" ] ~doc:"client-side connect/reply deadline")
  in
  let run addr nexi k method_ strict deadline_ms page_budget timeout_s =
    let cq =
      {
        Wire.c_nexi = nexi;
        c_k = k;
        c_method = method_;
        c_strict = strict;
        c_deadline_ms = deadline_ms;
        c_page_budget = page_budget;
      }
    in
    match
      let c = Serve.Client.connect ~timeout_s addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () -> Serve.Client.request ~timeout_s c cq)
    with
    | exception Serve.Client.Unreachable msg ->
        Printf.eprintf "unreachable: %s\n" msg;
        exit 7
    | Serve.Client.Draining ->
        Printf.printf "DRAINING: the server is going away; retry elsewhere\n";
        exit 7
    | Serve.Client.Shed { retry_after_ms; reason } ->
        Printf.printf "SHED: %s (retry after %.0f ms)\n" reason retry_after_ms;
        exit 6
    | Serve.Client.Answer a ->
        Printf.printf "%d answers (k=%d) in %.2f ms%s\n"
          (List.length a.Wire.ca_answers)
          a.Wire.ca_k
          (a.Wire.ca_elapsed_s *. 1000.0)
          (match a.Wire.ca_method with Some m -> " via " ^ m | None -> "");
        List.iteri
          (fun i (e : Trex.Answer.entry) ->
            Printf.printf "%2d. [%.4f] doc=%d sid=%d end=%d\n" (i + 1) e.score
              e.element.Trex.Types.docid e.element.Trex.Types.sid
              e.element.Trex.Types.endpos)
          a.Wire.ca_answers;
        if a.Wire.ca_degraded then begin
          Printf.printf "DEGRADED: answers are a sound but possibly-partial ranking\n";
          List.iter
            (fun (source, reason) -> Printf.printf "  %s: %s\n" source reason)
            a.Wire.ca_tags;
          exit 3
        end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Query a serve daemon (exit 0 ok, 3 degraded, 6 shed, 7 \
             draining/unreachable)")
    Term.(const run $ addr $ nexi $ k_arg $ method_arg $ strict $ deadline_ms
          $ page_budget $ timeout_s)

let () =
  (* Worker mode dispatches before cmdliner: the supervisor execs this
     very binary with a fixed argv and the protocol already wired onto
     stdin/stdout, so no flag parsing may touch those fds first. *)
  (match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: rest ->
      let rec get_opt key = function
        | k :: v :: _ when k = key -> Some v
        | _ :: tl -> get_opt key tl
        | [] -> None
      in
      let get key =
        match get_opt key rest with
        | Some v -> v
        | None ->
            prerr_endline ("shard-worker: missing " ^ key);
            exit 2
      in
      let dir = get "--dir" and shard = get "--shard" in
      (match get_opt "--listen" rest with
      | Some addr -> Supervisor.worker_listen ~dir ~shard ~addr ()
      | None -> Supervisor.worker_main ~dir ~shard ())
  | _ -> ());
  let doc = "TReX: self-managing top-k (summary, keyword) indexes for XML retrieval" in
  let info = Cmd.info "trex" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ gen_cmd; index_cmd; add_cmd; query_cmd; materialize_cmd; stats_cmd; advise_cmd; vacuum_cmd; verify_cmd; health_cmd; journal_cmd; autopilot_cmd; xpath_cmd; shard_cmd; serve_cmd; client_cmd ]
  in
  (* Exceptions are caught here, not by cmdliner, so an unreadable
     environment, a path holding no index, a directory that is no
     shard coordinator or a forced method whose lists are not
     materialized is one line and exit 1, and a coordinator whose
     map change could not be replayed one line and exit 2 (as [verify]
     reports an unresolvable op), rather than an internal error; any
     other exception is
     reported as cmdliner would (exit 125). *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception
        (( Trex_storage.Manifest.Unsupported_format _ | Trex.Index.No_index _
         | Shard.Not_a_coordinator _ | Trex.Rpl.Cursor.Missing_list _ ) as e) ->
        prerr_endline ("trex: " ^ Printexc.to_string e);
        1
    | exception (Shard.Map_unresolved _ as e) ->
        prerr_endline ("trex: " ^ Printexc.to_string e);
        2
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "trex: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
