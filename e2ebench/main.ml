(* TReX's end-to-end benchmark: four workloads that between them cross
   every layer a request can reach, each checked for rank-safe answers.

     bash e2ebench/run.sh --workload read-mix --seed 7 --seconds 15 --trace 0
     dune exec e2ebench/main.exe -- --seed 42 --out _e2ebench/out
     dune exec e2ebench/main.exe -- spread RUN_DIR... [--vs RUN_DIR...]

   Each workload sets up from a fixed corpus (set-up runs three times and
   its median is setup_s), measures for --seconds, and checks every answer
   against an exhaustive ERA ranking on a single environment. Every metric
   is printed as "workload metric value unit"; --out DIR (default
   _e2ebench/out) receives results.json, and with --trace 1 also
   <workload>.layers.json and <workload>.trace.json (a Chrome trace). The
   last line of stdout is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics, or with --trace 1 the per-layer
   metrics of a second, traced pass. README.md beside this file defines
   every workload and metric. *)

module Gen = Trex_corpus.Gen
module Queries = Trex_corpus.Queries
module Strategy = Trex.Strategy
module Answer = Trex.Answer
module Translate = Trex.Translate
module Rpl = Trex.Rpl
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Wire = Trex_shard.Wire
module Serve = Trex_serve.Serve
module Metrics = Trex.Obs.Metrics
module Span = Trex.Obs.Span
module Json = Trex.Obs.Json
module Stopclock = Trex_util.Stopclock
module Prng = Trex_util.Prng
module Zipf = Trex_util.Zipf
module Framing = Trex_util.Framing

let now = Stopclock.now
let fi = float_of_int
let ms s = s *. 1e3

(* ---- statistics ---- *)

(* Nearest-rank percentile of a latency sample; 0 for no samples. *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.0
let sum_int f = List.fold_left (fun a x -> a + f x) 0
let mean = function [] -> 0.0 | xs -> sum xs /. fi (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- host speed ---- *)

(* A shared host's speed drifts by a third within seconds as other
   tenants load the same cores, which swamps any change worth gating.
   So every process of a run samples a fixed probe, and latencies and
   rates are reported at a nominal host speed: a latency is scaled by
   [nominal_probe_s] over the median probe time of its half second in
   the processes that do the work. The probe calls no engine code and
   allocates nothing, so only the host's speed moves it. *)
let nominal_probe_s = 0.0005
let probe_keys = Array.init 2048 (fun i -> i * 7919 land 2047)
let probe_table = Array.make 4096 0
let probe_work = Array.make 2048 0
let probe_bytes = Bytes.init 16384 (fun i -> Char.chr (i * 31 land 255))

(* Hash inserts, an in-place sort and a byte hash over small fixed
   buffers: seconds taken. *)
let probe () =
  let t0 = now () in
  Array.fill probe_table 0 (Array.length probe_table) (-1);
  Array.iter
    (fun k ->
      let h = ref (k * 0x9E3779B1 land 4095) in
      while probe_table.(!h) >= 0 do
        h := (!h + 1) land 4095
      done;
      probe_table.(!h) <- k)
    probe_keys;
  Array.blit probe_keys 0 probe_work 0 (Array.length probe_keys);
  Array.sort Int.compare probe_work;
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length probe_bytes - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get probe_bytes i)) * 0x01000193 land 0xffffffff
  done;
  let dt = now () -. t0 in
  probe_work.(0) <- !h;
  dt

let probes = ref []
let last_probe = ref neg_infinity

(* The runner probes between its own operations, at most every 50 ms
   unless [force]d. *)
let maybe_probe ?(force = false) () =
  let t = now () in
  if force || t -. !last_probe >= 0.05 then begin
    last_probe := t;
    probes := (t, probe ()) :: !probes
  end

(* Names the directory where the run's other processes leave their
   probe samples. *)
let probe_env = "E2EBENCH_PROBES"

(* Shard workers and the serve daemon probe on a 50 ms interval timer,
   so the speed that scales their work is sampled where it runs. Returns
   the function that stops the timer and writes the samples, one file
   per process. *)
let probe_in_background () =
  match Sys.getenv_opt probe_env with
  | None -> ignore
  | Some dir ->
      probes := [];
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> probes := (now (), probe ()) :: !probes));
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.05; it_value = 0.05 });
      fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
        Out_channel.with_open_text
          (Filename.concat dir (string_of_int (Unix.getpid ())))
          (fun oc -> List.iter (fun (t, d) -> Printf.fprintf oc "%.9f %.9g\n" t d) !probes)

(* Maps a time to [nominal_probe_s] over the median probe of the nearest
   half second holding probes: the runner's own, or with [children] those
   of the workers or daemon, which must have exited. *)
let speed_factor ~children =
  let samples =
    if not children then !probes
    else
      match Sys.getenv_opt probe_env with
      | None -> []
      | Some dir ->
          List.concat_map
            (fun f ->
              List.filter_map
                (fun line -> Scanf.sscanf_opt line "%f %f" (fun t d -> (t, d)))
                (In_channel.with_open_text (Filename.concat dir f) In_channel.input_lines))
            (Array.to_list (Sys.readdir dir))
  in
  let window t = int_of_float (t /. 0.5) in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (t, d) ->
      let w = window t in
      Hashtbl.replace tbl w (d :: Option.value (Hashtbl.find_opt tbl w) ~default:[]))
    samples;
  let factors = Hashtbl.fold (fun w ds acc -> (w, nominal_probe_s /. median ds) :: acc) tbl [] in
  fun t ->
    let w = window t in
    match factors with
    | [] -> 1.0
    | first :: _ ->
        snd
          (List.fold_left
             (fun ((bw, _) as best) ((cw, _) as cand) ->
               if abs (cw - w) < abs (bw - w) then cand else best)
             first factors)

(* ---- shard workers ---- *)

(* Supervised shard workers exec their parent's binary, so the runner
   answers the shard-worker argv before parsing its own arguments. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: rest ->
      let rec get key = function
        | k :: v :: _ when k = key -> v
        | _ :: tl -> get key tl
        | [] ->
            prerr_endline ("shard-worker: missing " ^ key);
            exit 2
      in
      at_exit (probe_in_background ());
      Supervisor.worker_main ~dir:(get "--dir" rest) ~shard:(get "--shard" rest) ()
  | _ -> ()

(* ---- metric names ---- *)

(* Reported by every workload; BENCHMARK.json gives each its bound. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("throughput_rps", "1/s");
    ("space_amp", "ratio");
  ]

(* The end-to-end times again, as the wall clock read them. *)
let wall_names =
  [ ("wall.latency_p50_ms", "ms"); ("wall.latency_tail_ms", "ms"); ("wall.throughput_rps", "1/s") ]

(* Reported by the traced pass of every workload; a layer the workload
   does not reach reports 0. *)
let per_layer =
  [
    ("nexi.parse_us_p50", "us");
    ("nexi.translate_us_p50", "us");
    ("nexi.share", "ratio");
    ("nexi.sids_per_q", "count");
    ("topk.eval_ms_p50", "ms");
    ("topk.share", "ratio");
    ("topk.method.ta_share", "ratio");
    ("topk.method.merge_share", "ratio");
    ("topk.method.era_share", "ratio");
    ("topk.entries_read_per_q", "count");
    ("topk.useful_ratio", "ratio");
    ("topk.ta.sorted_accesses_per_q", "count");
    ("topk.ta.heap_ops_per_q", "count");
    ("topk.ta.blocks_skipped_per_q", "count");
    ("topk.ta.early_stop_share", "ratio");
    ("topk.merge.entries_per_q", "count");
    ("topk.era.positions_per_q", "count");
    ("topk.fallbacks", "count");
    ("topk.rpl_build_ms_p50", "ms");
    ("topk.rpl_build_entries", "count");
    ("topk.remat_ms_p50", "ms");
    ("topk.read_after_write_ms_p50", "ms");
    ("topk.read_after_remat_ms_p50", "ms");
    ("storage.physical_reads_per_q", "count");
    ("storage.cache_hit_ratio", "ratio");
    ("storage.physical_writes_per_doc", "count");
    ("storage.fsyncs_per_doc", "count");
    ("storage.node_splits_per_doc", "count");
    ("storage.manifest_appends_per_doc", "count");
    ("storage.write_amp", "ratio");
    ("storage.bytes.elements", "bytes");
    ("storage.bytes.postings", "bytes");
    ("storage.bytes.rpls", "bytes");
    ("storage.bytes.erpls", "bytes");
    ("storage.bytes.sources", "bytes");
    ("invindex.lists_invalidated_per_doc", "count");
    ("shard.worker_eval_ms_p50", "ms");
    ("shard.coord_overhead_ms_p50", "ms");
    ("shard.straggler_ratio", "ratio");
    ("shard.transport_ms_p50", "ms");
    ("shard.entries_read_per_q", "count");
    ("shard.early_terminations_per_q", "count");
    ("shard.restarts", "count");
    ("serve.server_eval_ms_p50", "ms");
    ("serve.front_door_ms_p50", "ms");
    ("serve.wait_ms_p99", "ms");
    ("serve.shed_share_r60", "ratio");
    ("serve.shed_share_r120", "ratio");
    ("serve.shed_share_r360", "ratio");
    ("serve.shed_share_r1000", "ratio");
    ("serve.goodput_r1000_rps", "1/s");
    ("serve.max_rate_ok_rps", "1/s");
    ("bench.gen_lag_ms_p99", "ms");
    ("bench.trace_overhead", "ratio");
    ("bench.unattributed_share", "ratio");
    ("bench.failed_share", "ratio");
    ("bench.samples", "count");
  ]

(* ---- run bookkeeping ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** operations that raised or never terminated *)
  mutable rejected : int;  (** answers or invariants the gate rejected *)
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; rejected = 0; notes = [] }
let note t msg = if List.length t.notes < 8 then t.notes <- msg :: t.notes

let check t ok msg =
  if not ok then begin
    t.rejected <- t.rejected + 1;
    note t (msg ())
  end

(* Runs one operation, counting it; an exception fails the operation,
   not the run. *)
let attempt t f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      t.failed <- t.failed + 1;
      note t (Printexc.to_string e);
      None

type outcome = {
  tally : tally;
  e2e : (string * float) list;
  wall : (string * float) list;  (** e2e times as the wall clock read them *)
  layers : (string * float) list;  (** [] unless traced *)
  trace : Trex.Obs.Export.process list;
}

(* ---- files ---- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- set-up ---- *)

let setup_reps = 3

(* Sets up [setup_reps] times, each into a fresh directory, and keeps
   the last; setup_s is the median. [setup] pauses [clock] around work
   that is not set-up proper: the reference rankings, which it computes
   on the kept repetition only ([last]). *)
let repeated_setup ~dir ~setup ~teardown =
  let rec go i times =
    let d = Filename.concat dir (Printf.sprintf "setup-%d" i) in
    mkdir_p d;
    let clock = Stopclock.create () in
    let last = i = setup_reps in
    let st = setup ~last clock d in
    let times = Stopclock.elapsed clock :: times in
    if last then (st, median times)
    else begin
      teardown st;
      rm_rf d;
      go (i + 1) times
    end
  in
  go 1 []

let docs_of (coll : Gen.collection) = List.of_seq (coll.docs ())
let xml_bytes docs = List.fold_left (fun a (_, xml) -> a + String.length xml) 0 docs

let table_bytes envs =
  let b name = fi (List.fold_left (fun a env -> a + Trex.Env.table_bytes env name) 0 envs) in
  List.map
    (fun t -> ("storage.bytes." ^ t, b t))
    [ "elements"; "postings"; "rpls"; "erpls"; "sources" ]

(* Materializes [queries], returning each build's time and entries. *)
let materialize_all engine queries =
  List.map
    (fun (q : Queries.t) ->
      let t0 = now () in
      let r = Trex.materialize engine q.nexi in
      (now () -. t0, r.Rpl.entries_written))
    queries

(* ---- inputs ---- *)

(* Every workload runs on Gen's own collections (its default seeds) at a
   size that sets up in seconds; --seed draws the request sequences and
   the order documents are added in. A fixed corpus keeps the spread
   between seeds down to the measurement itself, and it avoids corpora
   whose list builds overflow a B+tree page: [Bptree.insert] splits a
   leaf at its middle entry rather than its middle byte, and about one
   IEEE seed in five fails [Shard.materialize] that way at this size. *)
let ieee_docs = 200
let wiki_docs = 350

(* Draws from [deck] in seeded shuffles of the whole deck: every run
   issues each request in the same proportion and only the order
   depends on the seed, which keeps medians and tails from following
   the luck of the draw. *)
let deck_draws seed deck =
  let rng = Prng.create seed in
  let deck = Array.copy deck and next = ref (Array.length deck) in
  fun () ->
    if !next = Array.length deck then begin
      Prng.shuffle rng deck;
      next := 0
    end;
    incr next;
    deck.(!next - 1)

(* The paper's retrieval unit: the seven Table-1 queries x three k, in
   Table-1 order, dealt about 200 to a deck in Zipf proportions by that
   order. *)
let read_pairs =
  List.concat_map (fun (q : Queries.t) -> List.map (fun k -> (q, k)) [ 10; 100; 1000 ]) Queries.all

let read_deck =
  let zipf = Zipf.create (List.length read_pairs) in
  Array.concat
    (List.mapi
       (fun r pair ->
         Array.make (int_of_float (Float.round (200.0 *. Zipf.expected_frequency zipf r))) pair)
       read_pairs)

(* The scatter and serve-open mix: the heavy query 260 once in every 49
   requests (2%), the others the four light IEEE queries in equal
   shares. *)
let light = List.map Queries.find [ "202"; "203"; "233"; "270" ]
let heavy = Queries.find "260"
let mix_queries = heavy :: light
let mix_deck = Array.of_list (heavy :: List.concat (List.init 12 (fun _ -> light)))

(* ---- answers ---- *)

(* Exhaustive ERA over the query's (sids, terms), complete and sorted:
   the rank-safe reference every workload checks against. *)
let era_ranking engine nexi =
  let tr = Trex.translate engine (Trex.parse engine nexi) in
  (Strategy.evaluate (Trex.index engine) ~scoring:(Trex.scoring engine)
     ~sids:(Translate.all_sids tr) ~terms:(Translate.all_terms tr) ~k:max_int Strategy.Era_method)
    .Strategy.answers

(* Rank identity on (docid, endpos, score); sids are left out, since
   each shard numbers its own. Scores agree to 1e-9 relative: TA sums
   stored list scores in another order than ERA. *)
let rank_identical (a : Answer.t) (b : Answer.t) =
  List.compare_lengths a b = 0
  && List.for_all2
       (fun (x : Answer.entry) (y : Answer.entry) ->
         x.element.Trex.Types.docid = y.element.Trex.Types.docid
         && x.element.Trex.Types.endpos = y.element.Trex.Types.endpos
         && Float.abs (x.score -. y.score) <= 1e-9 *. Float.max 1.0 (Float.abs y.score))
       a b

(* ---- loops and their metrics ---- *)

type 'a timed = { at : float; secs : float; v : 'a }

(* Issues requests one at a time for [seconds]. [f] runs one request and
   returns its own latency (so its checks go untimed), or [None] for an
   operation that failed. *)
let closed_loop ~seconds ~next f =
  Gc.compact ();
  maybe_probe ~force:true ();
  let stop = now () +. seconds in
  let rec go acc =
    maybe_probe ();
    let at = now () in
    if at >= stop then List.rev acc
    else
      match f (next ()) with
      | Some (secs, v) -> go ({ at; secs; v } :: acc)
      | None -> go acc
  in
  go []

let at_speed factor samples = List.map (fun s -> s.secs *. factor s.at) samples
let raw samples = List.map (fun s -> s.secs) samples

(* Requests per second of request time. *)
let throughput lat = ratio (fi (List.length lat)) (sum lat)

let loop_metrics ~tail lat =
  [
    ("latency_p50_ms", ms (median lat));
    ("latency_tail_ms", ms (percentile tail lat));
    ("throughput_rps", throughput lat);
  ]

let wall_metrics = List.map (fun (n, v) -> ("wall." ^ n, v))

(* ---- tracing ---- *)

(* Runs [f] with span tracing on, engine spans included, and returns
   its result with the recorded span forest. *)
let traced f =
  Span.reset ();
  Span.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Span.set_enabled false) f in
  let roots = Span.roots () in
  Span.reset ();
  (r, roots)

let process name spans = { Trex.Obs.Export.p_pid = Unix.getpid (); p_name = name; p_spans = spans }

(* A layer call under a bench-side span, with its duration. *)
let layer name f =
  Span.with_ ~name (fun () ->
      let t0 = now () in
      let r = f () in
      (r, now () -. t0))

type read_sample = {
  parse : float;
  translate : float;
  eval : float;
  sids : int;
  method_used : Strategy.method_;
  entries : int;
  returned : int;
}

(* [Trex.query] decomposed into its layer calls: the same answers, and
   each layer's time. *)
let decomposed engine ~k nexi =
  let ast, parse = layer "bench.nexi.parse" (fun () -> Trex.parse engine nexi) in
  let tr, translate = layer "bench.nexi.translate" (fun () -> Trex.translate engine ast) in
  let sids = Translate.all_sids tr and terms = Translate.all_terms tr in
  let index = Trex.index engine in
  let (o, _), eval =
    layer "bench.topk.evaluate" (fun () ->
        let method_ = Strategy.choose index ~sids ~terms ~k in
        Strategy.evaluate_resilient index ~scoring:(Trex.scoring engine) ~sids ~terms ~k
          ~method_ ())
  in
  let answers = Answer.top_k o.Strategy.answers k in
  ( answers,
    {
      parse;
      translate;
      eval;
      sids = List.length sids;
      method_used = o.Strategy.method_used;
      entries = o.Strategy.entries_read;
      returned = List.length answers;
    } )

let method_shares methods =
  let n = fi (List.length methods) in
  let share m = ratio (fi (List.length (List.filter (( = ) m) methods))) n in
  [
    ("topk.method.ta_share", share Strategy.Ta_method +. share Strategy.Ita_method);
    ("topk.method.merge_share", share Strategy.Merge_method);
    ("topk.method.era_share", share Strategy.Era_method);
  ]

(* nexi and topk layers of timed decomposed reads; the unattributed
   residue is request time outside the three layer calls. *)
let read_layers (samples : read_sample timed list) =
  let total = sum (raw samples) in
  let each f = List.map (fun s -> f s.v) samples in
  let entries = fi (List.fold_left ( + ) 0 (each (fun s -> s.entries))) in
  [
    ("nexi.parse_us_p50", 1e6 *. median (each (fun s -> s.parse)));
    ("nexi.translate_us_p50", 1e6 *. median (each (fun s -> s.translate)));
    ("nexi.share", ratio (sum (each (fun s -> s.parse +. s.translate))) total);
    ("nexi.sids_per_q", mean (each (fun s -> fi s.sids)));
    ("topk.eval_ms_p50", ms (median (each (fun s -> s.eval))));
    ("topk.share", ratio (sum (each (fun s -> s.eval))) total);
    ("topk.entries_read_per_q", ratio entries (fi (List.length samples)));
    ("topk.useful_ratio", ratio (fi (List.fold_left ( + ) 0 (each (fun s -> s.returned)))) entries);
    ( "bench.unattributed_share",
      ratio (total -. sum (each (fun s -> s.parse +. s.translate +. s.eval))) total );
  ]
  @ method_shares (each (fun s -> s.method_used))

(* Layers read off registry counter deltas, per query served. *)
let counter_layers ~queries delta =
  let c name = fi (Option.value (List.assoc_opt name delta) ~default:0) in
  let per x = ratio x queries in
  [
    ("topk.ta.sorted_accesses_per_q", per (c "ta.sorted_accesses"));
    ("topk.ta.heap_ops_per_q", per (c "ta.heap_operations"));
    ("topk.ta.blocks_skipped_per_q", per (c "ta.blocks_skipped"));
    ("topk.ta.early_stop_share", ratio (c "ta.early_stops") (c "ta.runs"));
    ("topk.merge.entries_per_q", per (c "merge.entries_read"));
    ("topk.era.positions_per_q", per (c "era.positions_scanned"));
    ("topk.fallbacks", c "resilience.fallbacks");
    ("storage.physical_reads_per_q", per (c "pager.physical_reads"));
    ( "storage.cache_hit_ratio",
      ratio (c "pager.cache_hits") (c "pager.cache_hits" +. c "pager.cache_misses") );
  ]

let build_layers builds =
  [
    ("topk.rpl_build_ms_p50", ms (median (List.map fst builds)));
    ("topk.rpl_build_entries", fi (List.fold_left (fun a (_, n) -> a + n) 0 builds));
  ]

(* ---- read-mix ---- *)

(* Below the IEEE working set (postings and elements about 0.9 MB each,
   RPLs and ERPLs about 0.3 MB each at 200 documents): requests miss the
   pager cache. *)
let read_mix_cache_pages = 32

type collection_env = {
  env : Trex.Env.t;
  engine : Trex.t;
  refs : (string * Answer.t) list;
  builds : (float * int) list;
  xml : int;
  space : int;  (** [Env.total_bytes] with every table open *)
  sizes : (string * float) list;  (** [table_bytes], likewise *)
}

let open_collection ~last clock dir name (coll : Gen.collection) queries =
  let path = Filename.concat dir name in
  let docs = docs_of coll in
  let env = Trex.Env.on_disk path in
  let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
  let builds = materialize_all engine queries in
  let refs =
    if last then
      Stopclock.with_paused clock (fun () ->
          List.map (fun (q : Queries.t) -> (q.id, era_ranking engine q.nexi)) queries)
    else []
  in
  let space = Trex.Env.total_bytes env and sizes = table_bytes [ env ] in
  Trex.Env.close env;
  let env = Trex.Env.on_disk ~cache_pages:read_mix_cache_pages path in
  { env; engine = Trex.attach ~env (); refs; builds; xml = xml_bytes docs; space; sizes }

let read_mix ~seed ~seconds ~trace ~dir ~out:_ =
  let t = tally () in
  let setup ~last clock d =
    [
      open_collection ~last clock d "ieee" (Gen.ieee ~doc_count:ieee_docs ())
        (Queries.for_collection Queries.Ieee);
      open_collection ~last clock d "wiki" (Gen.wikipedia ~doc_count:wiki_docs ())
        (Queries.for_collection Queries.Wikipedia);
    ]
  in
  let teardown = List.iter (fun c -> Trex.Env.close c.env) in
  let colls, setup_s = repeated_setup ~dir ~setup ~teardown in
  let coll_of (q : Queries.t) = List.nth colls (if q.collection = Queries.Ieee then 0 else 1) in
  let reference (q : Queries.t) k = Answer.top_k (List.assoc q.id (coll_of q).refs) k in
  let gate (q : Queries.t) k answers =
    check t (rank_identical answers (reference q k)) (fun () ->
        Printf.sprintf "read-mix: query %s k=%d differs from the ERA reference" q.id k)
  in
  let samples, traced_run =
    Fun.protect ~finally:(fun () -> teardown colls) @@ fun () ->
    List.iter
      (fun ((q : Queries.t), k) -> ignore (Trex.query (coll_of q).engine ~k q.nexi))
      read_pairs;
    let samples =
      closed_loop ~seconds ~next:(deck_draws seed read_deck) (fun ((q : Queries.t), k) ->
          attempt t (fun () ->
              let t0 = now () in
              let o = Trex.query (coll_of q).engine ~k q.nexi in
              let dt = now () -. t0 in
              gate q k o.Trex.strategy.Strategy.answers;
              (dt, ())))
    in
    let traced_run =
      if not trace then None
      else begin
        let before = Metrics.counters () in
        let reads, spans =
          traced (fun () ->
              closed_loop ~seconds ~next:(deck_draws seed read_deck) (fun ((q : Queries.t), k) ->
                  attempt t (fun () ->
                      Span.with_ ~name:"bench.request" (fun () ->
                          let t0 = now () in
                          let answers, sample = decomposed (coll_of q).engine ~k q.nexi in
                          let dt = now () -. t0 in
                          gate q k answers;
                          (dt, sample)))))
        in
        Some (reads, spans, Metrics.counters_delta before (Metrics.counters ()))
      end
    in
    (samples, traced_run)
  in
  let factor = speed_factor ~children:false in
  let lat = at_speed factor samples in
  let e2e =
    (("setup_s", setup_s) :: loop_metrics ~tail:0.99 lat)
    @ [
        ( "space_amp",
          ratio (fi (sum_int (fun c -> c.space) colls)) (fi (sum_int (fun c -> c.xml) colls)) );
      ]
  in
  let wall = wall_metrics (loop_metrics ~tail:0.99 (raw samples)) in
  match traced_run with
  | None -> { tally = t; e2e; wall; layers = []; trace = [] }
  | Some (reads, spans, delta) ->
      let layers =
        read_layers reads
        @ counter_layers ~queries:(fi (List.length reads)) delta
        @ build_layers (List.concat_map (fun c -> c.builds) colls)
        @ List.map
            (fun (n, _) -> (n, sum (List.map (fun c -> List.assoc n c.sizes) colls)))
            (List.hd colls).sizes
        @ [
            ("bench.trace_overhead", ratio (median (at_speed factor reads)) (median lat));
            ("bench.samples", fi (List.length reads));
          ]
      in
      { tally = t; e2e; wall; layers; trace = [ process "e2ebench read-mix" spans ] }

(* ---- scatter ---- *)

type scatter_state = {
  shard : Shard.t;
  sup : Supervisor.t;
  refs : (string * Answer.t) list;
  xml : int;
  space : int;
  sizes : (string * float) list;
}

let scatter ~seed ~seconds ~trace ~dir ~out:_ =
  let t = tally () in
  let k = 10 in
  let setup ~last clock d =
    let coll = Gen.ieee ~doc_count:ieee_docs () in
    let docs = docs_of coll in
    let sdir = Filename.concat d "shards" in
    let shard = Shard.create ~dir:sdir ~shards:2 ~alias:coll.alias docs in
    List.iter (fun (q : Queries.t) -> Shard.materialize shard q.nexi) mix_queries;
    let refs =
      if last then
        Stopclock.with_paused clock (fun () ->
            let env = Trex.Env.in_memory () in
            let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
            List.map
              (fun (q : Queries.t) -> (q.id, Answer.top_k (era_ranking engine q.nexi) k))
              mix_queries)
      else []
    in
    let envs =
      List.filter_map
        (fun (i : Shard.shard_info) ->
          Option.map Trex.Index.env (Shard.index_of shard i.Shard.name))
        (Shard.shards shard)
    in
    let space = sum_int Trex.Env.total_bytes envs and sizes = table_bytes envs in
    let sup = Supervisor.create sdir in
    if not (Supervisor.await_healthy ~timeout_s:30.0 sup) then
      failwith "scatter: shard workers never became healthy";
    { shard; sup; refs; xml = xml_bytes docs; space; sizes }
  in
  let teardown st =
    Supervisor.close st.sup;
    Shard.close st.shard
  in
  let st, setup_s = repeated_setup ~dir ~setup ~teardown in
  let gate path (q : Queries.t) (r : Shard.result) =
    check t (not r.Shard.degraded) (fun () ->
        Printf.sprintf "scatter: %s query %s came back degraded" path q.id);
    check t
      (rank_identical r.Shard.answers (List.assoc q.id st.refs))
      (fun () -> Printf.sprintf "scatter: %s query %s differs from the ERA reference" path q.id)
  in
  let supervised (q : Queries.t) =
    let r, dt =
      layer "bench.shard.supervisor_query" (fun () -> Supervisor.query st.sup ~k q.nexi)
    in
    gate "supervised" q r;
    (dt, r)
  in
  let samples, traced_run =
    Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
    List.iter (fun q -> ignore (supervised q)) mix_queries;
    let samples =
      closed_loop ~seconds ~next:(deck_draws seed mix_deck) (fun q ->
          attempt t (fun () -> supervised q))
    in
    let traced_run =
      if not trace then None
      else begin
        (* Spans on also make each worker trace itself and ship its span
           tree and counter deltas back with the answer. *)
        let before = Metrics.counters () in
        let results, spans =
          traced (fun () ->
              closed_loop ~seconds ~next:(deck_draws seed mix_deck) (fun q ->
                  attempt t (fun () -> Span.with_ ~name:"bench.request" (fun () -> supervised q))))
        in
        let delta = Metrics.counters_delta before (Metrics.counters ()) in
        (* The same draws in-process: what the process boundary and the
           wire add. *)
        let next = deck_draws seed mix_deck in
        let inproc, inproc_spans =
          traced (fun () ->
              List.map
                (fun _ ->
                  let q = next () in
                  let r, dt =
                    layer "bench.shard.query" (fun () -> Shard.query st.shard ~k q.nexi)
                  in
                  gate "in-process" q r;
                  dt)
                results)
        in
        Some (results, inproc, spans @ inproc_spans, delta)
      end
    in
    let restarts =
      sum_int
        (fun (h : Supervisor.worker_health) -> h.Supervisor.w_total_restarts)
        (Supervisor.health st.sup)
    in
    check t (restarts = 0) (fun () -> Printf.sprintf "scatter: %d worker restarts" restarts);
    (samples, traced_run)
  in
  let factor = speed_factor ~children:true in
  let lat = at_speed factor samples in
  let e2e =
    (("setup_s", setup_s) :: loop_metrics ~tail:0.99 lat)
    @ [ ("space_amp", ratio (fi st.space) (fi st.xml)) ]
  in
  let wall = wall_metrics (loop_metrics ~tail:0.99 (raw samples)) in
  match traced_run with
  | None -> { tally = t; e2e; wall; layers = []; trace = [] }
  | Some (results, inproc, spans, delta) ->
      let n = fi (List.length results) in
      let reports = List.map (fun s -> s.v.Shard.reports) results in
      let worker_times =
        List.map (List.map (fun (r : Shard.shard_report) -> r.Shard.r_elapsed_seconds)) reports
      in
      let slowest = List.map (List.fold_left Float.max 0.0) worker_times in
      let c name = fi (Option.value (List.assoc_opt name delta) ~default:0) in
      let layers =
        [
          ("shard.worker_eval_ms_p50", ms (median slowest));
          ( "shard.coord_overhead_ms_p50",
            ms (median (List.map2 (fun s w -> s.secs -. w) results slowest)) );
          ( "shard.straggler_ratio",
            mean (List.map2 (fun w ts -> ratio w (mean ts)) slowest worker_times) );
          ("shard.transport_ms_p50", ms (median (raw results) -. median inproc));
          ( "shard.entries_read_per_q",
            let entries (r : Shard.shard_report) = r.Shard.r_entries_read in
            mean (List.map (fun rs -> fi (sum_int entries rs)) reports) );
          ("shard.early_terminations_per_q", ratio (c "shard.early_terminations") n);
          ("bench.trace_overhead", ratio (median (at_speed factor results)) (median lat));
          ("bench.samples", n);
        ]
        @ method_shares
            (List.concat_map
               (List.filter_map (fun (r : Shard.shard_report) -> r.Shard.r_method))
               reports)
        @ counter_layers ~queries:n delta
        @ st.sizes
      in
      { tally = t; e2e; wall; layers; trace = [ process "e2ebench scatter" spans ] }

(* ---- serve-open ---- *)

(* Every request carries this deadline; it is also the latency limit. *)
let serve_deadline_s = 0.150

(* The closed-loop phase's share of --seconds (the daemon's capacity),
   then the fixed offered rates, each with its share: light load
   (front-door cost), the latency step (120 req/s gets the most time:
   about 1,000 samples at the default 15 s), near capacity, and well
   above capacity (shedding). *)
let closed_share = 0.15
let serve_steps = [ (60.0, 0.05); (120.0, 0.6); (360.0, 0.08); (1000.0, 0.12) ]

let client_query (q : Queries.t) =
  {
    Wire.c_nexi = q.nexi;
    c_k = 10;
    c_method = None;
    c_strict = false;
    c_deadline_ms = Some (ms serve_deadline_s);
    c_page_budget = None;
  }

type server = { pid : int; conns : Serve.Client.t array; counters : string; mutable live : bool }

(* Forks a [Serve.run] daemon with the default policy on a pre-bound
   port-0 socket (no port race) and connects two clients. Nagle is off on
   both ends: with it, a pipelined connection locks into answering one
   request per client send (the loopback ACK timer), and that, not the
   daemon, would set latency. When it drains, the daemon writes its
   registry counter movement since it became ready to [counters] and,
   given [trace_out], its own spans as a Chrome trace. *)
let start_server ~dir ~counters ~trace_out =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.setsockopt listen Unix.TCP_NODELAY true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 64;
  let port = match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let stop_probes = probe_in_background () in
      Span.set_enabled (trace_out <> None);
      let ready = ref [] in
      let code =
        try
          Serve.run ~listen_fd:listen
            ~on_ready:(fun _ -> ready := Metrics.counters ())
            ~dir ~addr:"-" ()
        with _ -> 9
      in
      (try
         stop_probes ();
         let delta = Metrics.counters_delta !ready (Metrics.counters ()) in
         write_file counters
           (Json.to_string (Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) delta)));
         Option.iter
           (fun path -> Trex.Obs.Export.write path [ process "trex serve" (Span.roots ()) ])
           trace_out
       with _ -> ());
      Unix._exit code
  | pid -> (
      Unix.close listen;
      let addr = Printf.sprintf "127.0.0.1:%d" port in
      match Array.init 2 (fun _ -> Serve.Client.connect ~timeout_s:30.0 addr) with
      | conns ->
          Array.iter (fun c -> Unix.setsockopt (Serve.Client.fd c) Unix.TCP_NODELAY true) conns;
          { pid; conns; counters; live = true }
      | exception e ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          raise e)

(* Drains the daemon with SIGTERM, reaps it, and returns its counters. *)
let stop_server s =
  if s.live then begin
    s.live <- false;
    Array.iter Serve.Client.close s.conns;
    Unix.kill s.pid Sys.sigterm;
    let deadline = now () +. 20.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          Unix.kill s.pid Sys.sigkill;
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
  end;
  match Json.parse (read_file s.counters) with
  | Json.Obj kvs ->
      List.filter_map (fun (n, v) -> match v with Json.Int i -> Some (n, i) | _ -> None) kvs
  | _ -> []
  | exception _ -> []

type reply = {
  q : Queries.t;
  due : float;
  sent : float;
  arrived : float;
  answer : Wire.client_answer option;  (** [None]: shed *)
}

(* Drives both connections for [duration] seconds, until every request
   has ended as an answer or a Shed. With [rate], an open loop: requests
   go out on a fixed schedule, alternating between the connections,
   whether or not earlier ones have been answered. Without, a closed
   loop: each connection sends its next request when the last one ends,
   so the daemon always has work.

   Replies carry no request id. The server answers a connection's
   admitted requests in order, but sheds a request at admission as soon
   as it reads it, ahead of earlier requests still queued. So when an
   answer arrives, every earlier request on its connection has ended,
   and those not yet matched ended as sheds: the answer belongs to one
   of the first (unmatched sheds + 1) waiting requests, and its ranking
   says which. Between two waiting requests for the same query it goes
   to the earlier, which can only overstate latency. *)
let drive t s ?rate ~duration ~next ~reference () =
  let fds = Array.map Serve.Client.fd s.conns in
  let nconn = Array.length fds in
  let decoders = Array.init nconn (fun _ -> Framing.Decoder.create ()) in
  let waiting = Array.make nconn [] and sheds = Array.make nconn 0 in
  let replies = ref [] and sent = ref 0 and ended = ref 0 in
  let finish (q, due, sent) arrived answer =
    replies := { q; due; sent; arrived; answer } :: !replies
  in
  let send ci due =
    let q = next () in
    Serve.Client.send s.conns.(ci) (Wire.Client_query (client_query q));
    waiting.(ci) <- waiting.(ci) @ [ (q, due, now ()) ];
    incr sent
  in
  let on_answer ci arrived (a : Wire.client_answer) =
    let window = List.filteri (fun i _ -> i <= sheds.(ci)) waiting.(ci) in
    let fits (q, _, _) = a.Wire.ca_degraded || rank_identical a.Wire.ca_answers (reference q) in
    match (List.find_opt fits window, window) with
    | _, [] -> check t false (fun () -> "serve-open: an answer no request was waiting for")
    | owner, first :: _ ->
        check t (owner <> None) (fun () ->
            "serve-open: an answer matches no waiting query's ERA reference");
        let owner = Option.value owner ~default:first in
        let rec settle = function
          | f :: rest when f == owner ->
              finish f arrived (Some a);
              rest
          | f :: rest ->
              finish f arrived None;
              sheds.(ci) <- sheds.(ci) - 1;
              settle rest
          | [] -> []
        in
        waiting.(ci) <- settle waiting.(ci)
  in
  (* The client's own decoder is empty after the warm-up requests;
     reading the socket here lets select see every buffered reply. *)
  let chunk = Bytes.create 65536 in
  let receive fd =
    let ci = ref 0 in
    while fds.(!ci) <> fd do
      incr ci
    done;
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "serve-open: the server hung up"
    | got ->
        let arrived = now () in
        Framing.Decoder.feed decoders.(!ci) chunk 0 got;
        let rec drain () =
          match Framing.Decoder.next decoders.(!ci) with
          | None -> ()
          | Some payload ->
              (match Wire.decode_response payload with
              | Wire.Client_answer a ->
                  incr ended;
                  on_answer !ci arrived a
              | Wire.Shed _ ->
                  incr ended;
                  sheds.(!ci) <- sheds.(!ci) + 1
              | Wire.Drain | Wire.Hello _ | Wire.Pong _ | Wire.Answer _ ->
                  check t false (fun () -> "serve-open: unexpected frame from the server"));
              drain ()
        in
        drain ()
  in
  let wait_until deadline =
    match Unix.select (Array.to_list fds) [] [] (Float.max 0.0 (deadline -. now ())) with
    | readable, _, _ -> List.iter receive readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let t0 = now () in
  let stop = t0 +. duration and give_up = t0 +. duration +. 30.0 in
  let n = match rate with Some r -> int_of_float (Float.round (r *. duration)) | None -> max_int in
  let busy () = match rate with Some _ -> !ended < n | None -> now () < stop || !ended < !sent in
  while busy () && now () < give_up do
    match rate with
    | Some r ->
        let due = t0 +. (fi !sent /. r) in
        if !sent < n && now () >= due then send (!sent mod nconn) due
        else wait_until (if !sent < n then due else give_up)
    | None ->
        if now () < stop then Array.iteri (fun ci w -> if w = [] then send ci (now ())) waiting;
        wait_until (if now () < stop then stop else give_up)
  done;
  let last = now () in
  Array.iteri
    (fun ci w ->
      check t (List.length w = sheds.(ci)) (fun () ->
          Printf.sprintf "serve-open: %d requests never ended as an answer or a Shed"
            (List.length w - sheds.(ci)));
      List.iter (fun f -> finish f last None) w)
    waiting;
  t.attempted <- t.attempted + !sent;
  t.failed <- t.failed + (!sent - !ended);
  List.rev !replies

type step = { rate : float; duration : float; replies : reply list }

let latency r = r.arrived -. r.due
let complete r = match r.answer with Some a -> not a.Wire.ca_degraded | None -> false
let step_at rate steps = List.find (fun s -> s.rate = rate) steps

type serve_state = {
  server : server;
  edir : string;
  refs : (string * Answer.t) list;
  xml : int;
  space : int;
  sizes : (string * float) list;
}

let serve_open ~seed ~seconds ~trace ~dir ~out =
  let t = tally () in
  let setup ~last clock d =
    let coll = Gen.ieee ~doc_count:ieee_docs () in
    let docs = docs_of coll in
    let edir = Filename.concat d "env" in
    let env = Trex.Env.on_disk edir in
    let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
    ignore (materialize_all engine mix_queries);
    let refs =
      if last then
        Stopclock.with_paused clock (fun () ->
            List.map
              (fun (q : Queries.t) -> (q.id, Answer.top_k (era_ranking engine q.nexi) 10))
              mix_queries)
      else []
    in
    let space = Trex.Env.total_bytes env and sizes = table_bytes [ env ] in
    Trex.Env.close env;
    let server =
      start_server ~dir:edir ~counters:(Filename.concat d "counters.json") ~trace_out:None
    in
    { server; edir; refs; xml = xml_bytes docs; space; sizes }
  in
  let teardown st = ignore (stop_server st.server) in
  let st, setup_s = repeated_setup ~dir ~setup ~teardown in
  let reference (q : Queries.t) = List.assoc q.id st.refs in
  (* A warm-up request per query, then the closed-loop phase and the
     open-loop steps over both connections. *)
  let session (s : server) =
    List.iter
      (fun q ->
        let request () = Serve.Client.request s.conns.(0) (client_query q) in
        match fst (layer "bench.serve.client_request" request) with
        | Serve.Client.Answer a ->
            check t (rank_identical a.Wire.ca_answers (reference q)) (fun () ->
                "serve-open: a warm-up answer differs from the ERA reference")
        | Serve.Client.Shed _ | Serve.Client.Draining ->
            check t false (fun () -> "serve-open: an unloaded warm-up request was refused"))
      mix_queries;
    Gc.compact ();
    let next = deck_draws seed mix_deck in
    let closed = drive t s ~duration:(seconds *. closed_share) ~next ~reference () in
    check t (List.for_all complete closed) (fun () ->
        "serve-open: a closed-loop request was refused");
    let steps =
      List.map
        (fun (rate, share) ->
          let duration = seconds *. share in
          { rate; duration; replies = drive t s ~rate ~duration ~next ~reference () })
        serve_steps
    in
    (closed, steps)
  in
  let closed, steps = Fun.protect ~finally:(fun () -> teardown st) (fun () -> session st.server) in
  let traced_run =
    if not trace then None
    else begin
      let server =
        start_server ~dir:st.edir
          ~counters:(Filename.concat dir "traced-counters.json")
          ~trace_out:(Some (Filename.concat out "serve-open.server.trace.json"))
      in
      let run, spans =
        match
          traced (fun () ->
              let ((_, steps) as run) = session server in
              List.iter
                (fun s ->
                  List.iter
                    (fun r ->
                      let children =
                        match r.answer with
                        | Some a ->
                            [
                              {
                                Span.name = "serve.server_eval";
                                seconds = a.Wire.ca_elapsed_s;
                                start_s = 0.0;
                                attrs = [];
                                children = [];
                              };
                            ]
                        | None -> []
                      in
                      Span.emit ~name:"bench.serve.request"
                        ~attrs:[ ("query", r.q.id); ("rate", Printf.sprintf "%.0f" s.rate) ]
                        ~start_s:r.due ~seconds:(latency r) ~children ())
                    s.replies)
                steps;
              run)
        with
        | r -> r
        | exception e ->
            ignore (stop_server server);
            raise e
      in
      Some (run, spans, stop_server server)
    end
  in
  let factor = speed_factor ~children:true in
  let at120 steps factor =
    List.filter_map
      (fun r -> if complete r then Some (latency r *. factor r.due) else None)
      (step_at 120.0 steps).replies
  in
  let lat = at120 steps factor in
  (* Answers per second of the closed phase, at nominal host speed. *)
  let capacity = fi (List.length closed) /. (seconds *. closed_share) in
  (* The tail is p98: with query 260 in 2% of requests, the top 1% is a
     handful of requests queued behind it, too few to repeat. *)
  let e2e =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", ms (median lat));
      ("latency_tail_ms", ms (percentile 0.98 lat));
      ("throughput_rps", capacity /. mean (List.map (fun r -> factor r.due) closed));
      ("space_amp", ratio (fi st.space) (fi st.xml));
    ]
  in
  let wall_lat = at120 steps (fun _ -> 1.0) in
  let wall =
    wall_metrics
      [
        ("latency_p50_ms", ms (median wall_lat));
        ("latency_tail_ms", ms (percentile 0.98 wall_lat));
        ("throughput_rps", capacity);
      ]
  in
  match traced_run with
  | None -> { tally = t; e2e; wall; layers = []; trace = [] }
  | Some ((_, steps), spans, delta) ->
      let all = List.concat_map (fun s -> s.replies) steps in
      let answers = List.filter_map (fun r -> r.answer) all in
      let elapsed (a : Wire.client_answer) = a.Wire.ca_elapsed_s in
      let missed rs = List.length (List.filter (fun r -> not (complete r)) rs) in
      let shed_share rate =
        let rs = (step_at rate steps).replies in
        ratio (fi (List.length (List.filter (fun r -> r.answer = None) rs))) (fi (List.length rs))
      in
      let lag rs = List.map (fun r -> r.sent -. r.due) rs in
      (* The highest fixed rate whose p99 (a shed or degraded request
         counts as a miss) stays within the deadline, with at most 1%
         failed and a generator that kept to its schedule. *)
      let meets s =
        percentile 0.99 (List.map (fun r -> if complete r then latency r else infinity) s.replies)
        <= serve_deadline_s
        && ratio (fi (missed s.replies)) (fi (List.length s.replies)) <= 0.01
        && percentile 0.99 (lag s.replies) <= 0.005
      in
      let overload = step_at 1000.0 steps in
      let layers =
        [
          ("serve.server_eval_ms_p50", ms (median (List.map elapsed answers)));
          ( "serve.front_door_ms_p50",
            ms
              (median
                 (List.filter_map
                    (fun r -> Option.map (fun a -> r.arrived -. r.sent -. elapsed a) r.answer)
                    (step_at 60.0 steps).replies)) );
          ( "serve.wait_ms_p99",
            ms
              (percentile 0.99
                 (List.filter_map
                    (fun r ->
                      if complete r then Option.map (fun a -> latency r -. elapsed a) r.answer
                      else None)
                    (step_at 120.0 steps).replies)) );
          ("serve.shed_share_r60", shed_share 60.0);
          ("serve.shed_share_r120", shed_share 120.0);
          ("serve.shed_share_r360", shed_share 360.0);
          ("serve.shed_share_r1000", shed_share 1000.0);
          ( "serve.goodput_r1000_rps",
            let good r = complete r && latency r <= serve_deadline_s in
            fi (List.length (List.filter good overload.replies)) /. overload.duration );
          ( "serve.max_rate_ok_rps",
            List.fold_left (fun a s -> if meets s then Float.max a s.rate else a) 0.0 steps );
          ("bench.gen_lag_ms_p99", ms (percentile 0.99 (lag all)));
          ("bench.trace_overhead", ratio (median (at120 steps factor)) (median lat));
          ("bench.unattributed_share", ratio (sum (lag all)) (sum (List.map latency all)));
          ("bench.failed_share", ratio (fi (missed all)) (fi (List.length all)));
          ("bench.samples", fi (List.length all));
        ]
        @ method_shares
            (List.filter_map
               (fun (a : Wire.client_answer) ->
                 List.find_opt
                   (fun m -> Some (Strategy.method_to_string m) = a.Wire.ca_method)
                   Strategy.all_methods)
               answers)
        @ counter_layers ~queries:(fi (List.length answers)) delta
        @ st.sizes
      in
      { tally = t; e2e; wall; layers; trace = [ process "e2ebench serve-open client" spans ] }

(* ---- ingest ---- *)

let ingest_queries = List.map Queries.find [ "202"; "203"; "233"; "270" ]
let ingest_initial = 100
let ingest_batch = 10

(* [Env.on_disk]'s default page size: the unit of a physical write. *)
let page_bytes = 8192

let write_counters =
  [
    "pager.physical_writes";
    "pager.fsyncs";
    "env.dir_fsyncs";
    "bptree.node_splits";
    "manifest.appends";
  ]

type ingest_state = { env : Trex.Env.t; engine : Trex.t; xml : int }

type cycles = {
  ops : unit timed list;  (** every timed operation *)
  writes : unit timed list;
  after_write : unit timed list;  (** reads right after the adds *)
  after_remat : unit timed list;
  remats : unit timed list list;  (** per cycle: the drop and the four builds *)
  builds : (float * int) list;
  reads : read_sample timed list;  (** traced reads *)
  added : int;  (** XML bytes added *)
  write_deltas : (string * int) list;
  read_deltas : (string * int) list;
  invalidated : int;
  space : int;
  sizes : (string * float) list;
}

let ingest ~seed ~seconds ~trace ~dir ~out:_ =
  let t = tally () in
  let coll = Gen.ieee ~doc_count:(ingest_initial + 500) () in
  let held_out = Array.of_seq (Seq.drop ingest_initial (coll.docs ())) in
  Prng.shuffle (Prng.create seed) held_out;
  let setup ~last:_ _ d =
    let docs = List.of_seq (Seq.take ingest_initial (coll.docs ())) in
    let env = Trex.Env.on_disk (Filename.concat d "env") in
    let engine = Trex.build ~env ~alias:coll.alias (List.to_seq docs) in
    ignore (materialize_all engine ingest_queries);
    { env; engine; xml = xml_bytes docs }
  in
  let teardown st = Trex.Env.close st.env in
  (* Cycles of ten durable adds, a read of each query, a
     rematerialization and the reads again, until [seconds] have passed.
     After the adds every list of the mix is dropped: [add_document]
     drops only the lists of terms in the new document, and the ones it
     keeps were scored under the old corpus statistics, so TA over them
     no longer matches ERA. The reads in between are therefore ERA. *)
  let cycles st ~traced_pass =
    let index = Trex.index st.engine in
    let ops = ref [] and writes = ref [] and after_write = ref [] and after_remat = ref [] in
    let remats = ref [] and builds = ref [] and reads = ref [] and added = ref 0 in
    let write_deltas = Hashtbl.create 8 and read_deltas = Hashtbl.create 32 in
    let invalidated = ref 0 in
    let bump tbl delta =
      List.iter
        (fun (n, v) -> Hashtbl.replace tbl n (v + Option.value (Hashtbl.find_opt tbl n) ~default:0))
        delta
    in
    let lists () =
      List.length (Rpl.catalog index Rpl.Rpl) + List.length (Rpl.catalog index Rpl.Erpl)
    in
    (* One timed operation under a bench span; [None] if it failed. *)
    let op name f =
      maybe_probe ();
      let at = now () in
      Option.map
        (fun (r, secs) ->
          let timed = { at; secs; v = () } in
          ops := timed :: !ops;
          (r, timed))
        (attempt t (fun () -> layer name f))
    in
    let read_pass acc refs =
      let before = Metrics.counters () in
      let refs =
        List.map
          (fun (q : Queries.t) ->
            let got =
              op "bench.request" (fun () ->
                  if traced_pass then
                    let answers, sample = decomposed st.engine ~k:10 q.nexi in
                    (answers, Some sample)
                  else ((Trex.query st.engine ~k:10 q.nexi).Trex.strategy.Strategy.answers, None))
            in
            let reference =
              match List.assoc_opt q.id refs with
              | Some r -> r
              | None -> Answer.top_k (era_ranking st.engine q.nexi) 10
            in
            Option.iter
              (fun ((answers, sample), timed) ->
                acc := timed :: !acc;
                Option.iter (fun v -> reads := { timed with v } :: !reads) sample;
                check t (rank_identical answers reference) (fun () ->
                    Printf.sprintf "ingest: query %s differs from ERA on the same environment"
                      q.id))
              got;
            (q.id, reference))
          ingest_queries
      in
      if traced_pass then bump read_deltas (Metrics.counters_delta before (Metrics.counters ()));
      refs
    in
    Gc.compact ();
    maybe_probe ~force:true ();
    let t0 = now () in
    let next = ref 0 in
    while now () -. t0 < seconds && !next + ingest_batch <= Array.length held_out do
      for _ = 1 to ingest_batch do
        let name, xml = held_out.(!next) in
        incr next;
        let lists_before = if traced_pass then lists () else 0 in
        let before = List.map (fun n -> Metrics.value (Metrics.counter n)) write_counters in
        let add () = Trex.add_document st.engine ~name ~xml in
        match op "bench.invindex.add_document" add with
        | Some (_, timed) ->
            writes := timed :: !writes;
            added := !added + String.length xml;
            if traced_pass then begin
              invalidated := !invalidated + (lists_before - lists ());
              bump write_deltas
                (List.map2
                   (fun n b -> (n, Metrics.value (Metrics.counter n) - b))
                   write_counters before)
            end
        | None -> ()
      done;
      let drop =
        op "bench.topk.drop" (fun () -> List.iter (Rpl.drop_all index) [ Rpl.Rpl; Rpl.Erpl ])
      in
      let refs = read_pass after_write [] in
      let built =
        List.filter_map
          (fun (q : Queries.t) ->
            Option.map
              (fun (r, timed) ->
                builds := (timed.secs, r.Rpl.entries_written) :: !builds;
                timed)
              (op "bench.topk.materialize" (fun () -> Trex.materialize st.engine q.nexi)))
          ingest_queries
      in
      remats := (Option.to_list (Option.map snd drop) @ built) :: !remats;
      ignore (read_pass after_remat refs)
    done;
    let assoc tbl = Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl [] in
    {
      ops = !ops;
      writes = !writes;
      after_write = !after_write;
      after_remat = !after_remat;
      remats = !remats;
      builds = !builds;
      reads = !reads;
      added = !added;
      write_deltas = assoc write_deltas;
      read_deltas = assoc read_deltas;
      invalidated = !invalidated;
      space = Trex.Env.total_bytes st.env;
      sizes = table_bytes [ st.env ];
    }
  in
  let run ~traced_pass dir =
    let st = setup ~last:false (Stopclock.create ()) dir in
    Fun.protect ~finally:(fun () -> teardown st) (fun () -> cycles st ~traced_pass)
  in
  let st, setup_s = repeated_setup ~dir ~setup ~teardown in
  let c = Fun.protect ~finally:(fun () -> teardown st) (fun () -> cycles st ~traced_pass:false) in
  let traced_run =
    if not trace then None
    else begin
      let tdir = Filename.concat dir "traced" in
      mkdir_p tdir;
      Some (traced (fun () -> run ~traced_pass:true tdir))
    end
  in
  let factor = speed_factor ~children:false in
  let docs c = fi (List.length c.writes) in
  let write_metrics factor c =
    let writes = at_speed factor c.writes in
    [
      ("latency_p50_ms", ms (median writes));
      ("latency_tail_ms", ms (percentile 0.9 writes));
      ("throughput_rps", ratio (docs c) (sum (at_speed factor c.ops)));
    ]
  in
  let e2e =
    (("setup_s", setup_s) :: write_metrics factor c)
    @ [ ("space_amp", ratio (fi c.space) (fi (st.xml + c.added))) ]
  in
  let wall = wall_metrics (write_metrics (fun _ -> 1.0) c) in
  match traced_run with
  | None -> { tally = t; e2e; wall; layers = []; trace = [] }
  | Some (c', spans) ->
      let w name = fi (Option.value (List.assoc_opt name c'.write_deltas) ~default:0) in
      let per_doc x = ratio x (docs c') in
      let p50 l = ms (median (at_speed factor l)) in
      let layers =
        read_layers c'.reads
        @ counter_layers ~queries:(fi (List.length c'.reads)) c'.read_deltas
        @ build_layers c'.builds
        @ c'.sizes
        @ [
            ( "topk.remat_ms_p50",
              ms (median (List.map (fun r -> sum (at_speed factor r)) c'.remats)) );
            ("topk.read_after_write_ms_p50", p50 c'.after_write);
            ("topk.read_after_remat_ms_p50", p50 c'.after_remat);
            ("storage.physical_writes_per_doc", per_doc (w "pager.physical_writes"));
            ("storage.fsyncs_per_doc", per_doc (w "pager.fsyncs" +. w "env.dir_fsyncs"));
            ("storage.node_splits_per_doc", per_doc (w "bptree.node_splits"));
            ("storage.manifest_appends_per_doc", per_doc (w "manifest.appends"));
            ("storage.write_amp", ratio (w "pager.physical_writes" *. fi page_bytes) (fi c'.added));
            ("invindex.lists_invalidated_per_doc", per_doc (fi c'.invalidated));
            ("bench.trace_overhead", ratio (p50 c'.writes) (p50 c.writes));
            ("bench.samples", docs c');
          ]
      in
      { tally = t; e2e; wall; layers; trace = [ process "e2ebench ingest" spans ] }

(* ---- spread ---- *)

(* Python's statistics.median and statistics.quantiles(xs, n=4), the
   figures the repeatability check is defined by. *)
let stat_median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then (nan, nan)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.0
    in
    (q 1, q 3)

(* (workload, metric) -> values, over the results.json of each run
   directory, in first-seen order. *)
let collect dirs =
  let tbl = Hashtbl.create 64 and order = ref [] in
  let add key v =
    match Hashtbl.find_opt tbl key with
    | Some vs -> Hashtbl.replace tbl key (v :: vs)
    | None ->
        order := key :: !order;
        Hashtbl.replace tbl key [ v ]
  in
  List.iter
    (fun d ->
      match Json.member "workloads" (Json.parse (read_file (Filename.concat d "results.json"))) with
      | Some (Json.Obj ws) ->
          List.iter
            (fun (w, wj) ->
              match Json.member "metrics" wj with
              | Some (Json.Obj ms) ->
                  List.iter
                    (fun (m, mj) ->
                      match Json.member "value" mj with
                      | Some (Json.Float v) -> add (w, m) v
                      | Some (Json.Int v) -> add (w, m) (fi v)
                      | _ -> ())
                    ms
              | _ -> ())
            ws
      | _ -> failwith (d ^ "/results.json: no workloads"))
    dirs;
  (List.rev !order, tbl)

(* Bounds and directions of the end-to-end metrics, from BENCHMARK.json
   in the working directory when there is one. *)
let bounds () =
  match Json.member "end_to_end" (Json.parse (read_file "BENCHMARK.json")) with
  | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "bound" m, Json.member "better" m) with
          | Some (Json.String n), Some (Json.Float b), Some (Json.String better) ->
              Some (n, (b, better))
          | _ -> None)
        ms
  | _ -> []
  | exception Sys_error _ -> []

(* For each (workload, metric) over runs A: the median, the quartiles,
   the interquartile spread as a share of the median, and whether it
   fits the metric's bound ("ok" within a third of it). With --vs B,
   also B's median and how much worse than A's it reads. *)
let spread args =
  let rec split acc = function
    | "--vs" :: rest -> (List.rev acc, rest)
    | d :: rest -> split (d :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_dirs, b_dirs = split [] args in
  if a_dirs = [] then failwith "spread: give at least one run directory";
  let order, a = collect a_dirs and _, b = collect b_dirs and bounds = bounds () in
  Printf.printf "%-10s %-34s %3s %11s %11s %11s %7s %5s %-5s%s\n" "workload" "metric" "n"
    "median" "q1" "q3" "spread" "bound" "fits"
    (if b_dirs = [] then "" else "    median_b worse_by fits_b");
  List.iter
    (fun ((w, m) as key) ->
      let vs = Hashtbl.find a key in
      let med = stat_median vs and q1, q3 = quartiles vs in
      let spread = Float.abs (ratio (q3 -. q1) med) in
      let bound = List.assoc_opt m bounds in
      let verdict =
        match bound with
        | None -> "-"
        | Some (bd, _) ->
            if spread <= bd /. 3.0 then "ok" else if spread <= bd then "loose" else "WIDE"
      in
      let versus =
        match (Hashtbl.find_opt b key, bound) with
        | None, _ -> ""
        | Some vb, _ ->
            let mb = stat_median vb in
            let worse =
              match bound with
              | Some (_, "higher") -> ratio (med -. mb) med
              | _ -> ratio (mb -. med) med
            in
            Printf.sprintf " %11.6g %8.4f %s" mb worse
              (match bound with None -> "-" | Some (bd, _) -> if worse <= bd then "ok" else "WORSE")
      in
      Printf.printf "%-10s %-34s %3d %11.6g %11.6g %11.6g %7.4f %5s %-5s%s\n" w m
        (List.length vs) med q1 q3 spread
        (match bound with None -> "-" | Some (bd, _) -> Printf.sprintf "%.2f" bd)
        verdict versus)
    order

(* ---- main ---- *)

let workloads =
  [ ("read-mix", read_mix); ("scatter", scatter); ("serve-open", serve_open); ("ingest", ingest) ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
    \       main.exe spread RUN_DIR... [--vs RUN_DIR...]";
  exit 2

(* Every declared metric, in declaration order; a value the workload did
   not produce is 0 for a per-layer metric and an error otherwise. *)
let complete_metrics ~required decl values =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n decl) then failwith ("undeclared metric " ^ n))
    values;
  List.map
    (fun (n, u) ->
      match List.assoc_opt n values with
      | Some v -> (n, v, u)
      | None when required -> failwith ("missing metric " ^ n)
      | None -> (n, 0.0, u))
    decl

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       ms)

let run args =
  let selected = ref [] and seed = ref 42 and seconds = ref 15.0 and trace = ref false in
  let out = ref (Filename.concat "_e2ebench" "out") in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        selected := !selected @ [ w ];
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--out" :: d :: rest ->
        out := d;
        parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  let selected = if !selected = [] then List.map fst workloads else !selected in
  let work = Filename.concat "_e2ebench" (Printf.sprintf "work-%d" (Unix.getpid ())) in
  let probe_dir = Filename.concat (Sys.getcwd ()) (Filename.concat work "probes") in
  mkdir_p !out;
  mkdir_p probe_dir;
  Unix.putenv probe_env probe_dir;
  let results =
    Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
    List.map
      (fun name ->
        let dir = Filename.concat work name in
        mkdir_p dir;
        let workload = List.assoc name workloads in
        let o = workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~dir ~out:!out in
        let e2e = complete_metrics ~required:true end_to_end o.e2e in
        let wall = complete_metrics ~required:true wall_names o.wall in
        let layers = if !trace then complete_metrics ~required:false per_layer o.layers else [] in
        List.iter
          (fun (m, v, u) -> Printf.printf "%s %s %.6g %s\n%!" name m v u)
          (e2e @ wall @ layers);
        if !trace then begin
          write_file
            (Filename.concat !out (name ^ ".layers.json"))
            (Json.to_string ~pretty:true
               (Json.Obj
                  [
                    ("workload", Json.String name);
                    ("seed", Json.Int !seed);
                    ("metrics", metrics_json layers);
                  ]));
          Trex.Obs.Export.write (Filename.concat !out (name ^ ".trace.json")) o.trace
        end;
        List.iter (fun msg -> Printf.printf "%s note: %s\n" name msg) (List.rev o.tally.notes);
        (name, o.tally, e2e, wall, layers))
      selected
  in
  let correct = List.for_all (fun (_, t, _, _, _) -> t.rejected = 0) results in
  write_file
    (Filename.concat !out "results.json")
    (Json.to_string ~pretty:true
       (Json.Obj
          [
            ("seed", Json.Int !seed);
            ("seconds", Json.Float !seconds);
            ("trace", Json.Bool !trace);
            ( "workloads",
              Json.Obj
                (List.map
                   (fun (name, t, e2e, wall, layers) ->
                     ( name,
                       Json.Obj
                         [
                           ("correct", Json.Bool (t.rejected = 0));
                           ("attempted", Json.Int t.attempted);
                           ("failed", Json.Int t.failed);
                           ("rejected", Json.Int t.rejected);
                           ( "notes",
                             Json.List (List.map (fun s -> Json.String s) (List.rev t.notes)) );
                           ("metrics", metrics_json (e2e @ wall @ layers));
                         ] ))
                   results) );
          ]));
  let single = List.length results = 1 in
  let reported =
    List.concat_map
      (fun (name, _, e2e, _, layers) ->
        List.map
          (fun (m, v, u) -> ((if single then m else name ^ ":" ^ m), v, u))
          (if !trace then layers else e2e))
      results
  in
  let total f = List.fold_left (fun a (_, t, _, _, _) -> a + f t) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (total (fun t -> t.attempted)));
            ("failed", Json.Int (total (fun t -> t.failed)));
            ("metrics", metrics_json reported);
          ]));
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "spread" :: dirs -> spread dirs
  | args -> run args
