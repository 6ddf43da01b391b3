(* Machine-readable bench output: each section accumulates records and
   flushes them to BENCH_<section>.json next to the human tables, so
   runs can be diffed or plotted without scraping stdout.

   Schema (trex-bench-v1):
     { "schema": "trex-bench-v1",
       "section": "<section>",
       "quick": bool,
       "resilience": { "retries": int, "breaker_trips": int,
                       "degraded_runs": int },
       "queries": {
         "<query>": [ { "strategy": str, "k": int, "ms": float,
                        "counters": { "<name>": int, ... } }, ... ] } }
*)

module Json = Trex_obs.Json
module Metrics = Trex_obs.Metrics

(* Output directory for BENCH_<section>.json files; "." keeps the
   historical write-to-cwd behavior. *)
let out_dir = ref "."

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let set_dir dir =
  mkdir_p dir;
  out_dir := dir

type record = {
  query : string;
  strategy : string;
  k : int;
  ms : float;
  counters : (string * int) list;
}

let sections : (string, record list ref) Hashtbl.t = Hashtbl.create 8

let record ~section ~query ~strategy ~k ~ms counters =
  let rs =
    match Hashtbl.find_opt sections section with
    | Some rs -> rs
    | None ->
        let rs = ref [] in
        Hashtbl.add sections section rs;
        rs
  in
  rs := { query; strategy; k; ms; counters } :: !rs

let json_of_record r =
  Json.Obj
    [
      ("strategy", Json.String r.strategy);
      ("k", Json.Int r.k);
      ("ms", Json.Float r.ms);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) r.counters) );
    ]

let flush ~quick section =
  match Hashtbl.find_opt sections section with
  | None -> ()
  | Some rs ->
      let records = List.rev !rs in
      Hashtbl.remove sections section;
      (* Group by query, keeping first-appearance order of both the
         queries and the records within each. *)
      let order = ref [] in
      let by_query : (string, record list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun r ->
          match Hashtbl.find_opt by_query r.query with
          | Some l -> l := r :: !l
          | None ->
              order := r.query :: !order;
              Hashtbl.add by_query r.query (ref [ r ]))
        records;
      let queries =
        List.rev_map
          (fun q ->
            let rows = List.rev !(Hashtbl.find by_query q) in
            (q, Json.List (List.map json_of_record rows)))
          !order
      in
      (* Process-wide resilience totals at flush time: a clean bench run
         should show zeros; nonzero values flag I/O trouble behind the
         timings. *)
      let resilience =
        let v name = Metrics.value (Metrics.counter name) in
        Json.Obj
          [
            ("breaker_trips", Json.Int (v "resilience.breaker_trips"));
            ("degraded_runs", Json.Int (v "resilience.degraded_runs"));
          ]
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.String "trex-bench-v1");
            ("section", Json.String section);
            ("quick", Json.Bool quick);
            ("resilience", resilience);
            ("queries", Json.Obj queries);
          ]
      in
      let path = Filename.concat !out_dir (Printf.sprintf "BENCH_%s.json" section) in
      let oc = open_out path in
      output_string oc (Json.to_string ~pretty:true doc);
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %s (%d records)\n%!" path (List.length records)
