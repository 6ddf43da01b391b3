module Crc32 = Trex_util.Crc32
module Framing = Trex_util.Framing

let m_appends = Metrics.counter "journal.appends"
let m_corrupt = Metrics.counter "journal.corrupt_records"
let m_torn = Metrics.counter "journal.torn_tails"
let m_recovered = Metrics.counter "journal.records_recovered"

type record = {
  qid : int;
  ts : float;
  digest : string;
  label : string;
  strategy : string;
  k : int;
  wall_ms : float;
  pages_read : int;
  cache_hit_ratio : float;
  heap_ops : int;
  degraded : bool;
  fallbacks : int;
  spans : (string * float) list;
}

let magic = "TREXQJ1\n"

type backend = Mem | File of { fd : Unix.file_descr; file_path : string }

type t = {
  backend : backend;
  mutable stored : record list; (* newest first *)
  mutable count : int;
  mutable next_qid : int;
  mutable closed : bool;
}

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let record_to_json r =
  Json.Obj
    [
      ("qid", Json.Int r.qid);
      ("ts", Json.Float r.ts);
      ("digest", Json.String r.digest);
      ("label", Json.String r.label);
      ("strategy", Json.String r.strategy);
      ("k", Json.Int r.k);
      ("wall_ms", Json.Float r.wall_ms);
      ("pages_read", Json.Int r.pages_read);
      ("cache_hit_ratio", Json.Float r.cache_hit_ratio);
      ("heap_ops", Json.Int r.heap_ops);
      ("degraded", Json.Bool r.degraded);
      ("fallbacks", Json.Int r.fallbacks);
      ("spans", Json.Obj (List.map (fun (p, ms) -> (p, Json.Float ms)) r.spans));
    ]

let jstr j k d = match Json.member k j with Some (Json.String s) -> s | _ -> d

let jint j k d =
  match Json.member k j with
  | Some (Json.Int i) -> i
  | Some (Json.Float f) -> int_of_float f
  | _ -> d

let jflt j k d =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> d

let jbool j k d = match Json.member k j with Some (Json.Bool b) -> b | _ -> d

let record_of_json j =
  match (Json.member "digest" j, Json.member "strategy" j) with
  | Some (Json.String digest), Some (Json.String strategy) ->
      let spans =
        match Json.member "spans" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (p, v) ->
                match v with
                | Json.Float ms -> Some (p, ms)
                | Json.Int ms -> Some (p, float_of_int ms)
                | _ -> None)
              fields
        | _ -> []
      in
      Some
        {
          qid = jint j "qid" 0;
          ts = jflt j "ts" 0.0;
          digest;
          label = jstr j "label" "";
          strategy;
          k = jint j "k" 0;
          wall_ms = jflt j "wall_ms" 0.0;
          pages_read = jint j "pages_read" 0;
          cache_hit_ratio = jflt j "cache_hit_ratio" 0.0;
          heap_ops = jint j "heap_ops" 0;
          degraded = jbool j "degraded" false;
          fallbacks = jint j "fallbacks" 0;
          spans;
        }
  | _ -> None

(* A scatter's per-shard breakdown, as [pp_record] shows it. *)
let pp_breakdown r =
  String.concat ""
    (List.filter_map
       (fun (p, ms) ->
         if String.starts_with ~prefix:"shard:" p then
           Some (Printf.sprintf "  %s=%.3fms" p ms)
         else if String.starts_with ~prefix:"lost:" p then Some ("  " ^ p)
         else None)
       r.spans)

let pp_record fmt r =
  Format.fprintf fmt "#%d %s %-10s k=%-4d %8.3f ms  pages=%-5d hit=%4.0f%%%s%s%s%s"
    r.qid r.digest r.strategy r.k r.wall_ms r.pages_read
    (100.0 *. r.cache_hit_ratio)
    (if r.degraded then "  DEGRADED" else "")
    (if r.fallbacks > 0 then Printf.sprintf "  fallbacks=%d" r.fallbacks else "")
    (pp_breakdown r)
    (if r.label = "" then "" else "  " ^ r.label)

let digest_of s = Printf.sprintf "%08lx" (Crc32.string s)

(* Framed-payload codec for {!Trex_util.Framing}: undecodable JSON is
   a corrupt frame. *)
let decode payload =
  match record_of_json (Json.parse payload) with
  | r -> r
  | exception Json.Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let next_qid_of records =
  1 + List.fold_left (fun acc r -> max acc r.qid) (-1) records

let make backend records =
  {
    backend;
    stored = List.rev records;
    count = List.length records;
    next_qid = next_qid_of records;
    closed = false;
  }

let in_memory () = make Mem []

let open_file file_path =
  let swept = Framing.open_file ~magic ~decode file_path in
  Metrics.add m_corrupt swept.Framing.corrupt;
  Metrics.add m_recovered (List.length swept.Framing.records);
  if swept.Framing.torn then Metrics.incr m_torn;
  make (File { fd = swept.Framing.fd; file_path }) swept.Framing.records

let records t = List.rev t.stored
let length t = t.count
let path t = match t.backend with Mem -> None | File f -> Some f.file_path

let append t r =
  if t.closed then invalid_arg "Journal.append: journal is closed";
  let r = { r with qid = t.next_qid } in
  t.next_qid <- t.next_qid + 1;
  (match t.backend with
  | Mem -> ()
  | File { fd; _ } ->
      Framing.append fd (Json.to_string (record_to_json r)));
  t.stored <- r :: t.stored;
  t.count <- t.count + 1;
  Metrics.incr m_appends;
  r

let sync t =
  match t.backend with
  | Mem -> ()
  | File { fd; _ } -> if not t.closed then Unix.fsync fd

let close t =
  if not t.closed then begin
    (match t.backend with
    | Mem -> ()
    | File { fd; _ } ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd);
    t.closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)

let enabled_flag = ref false
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Measuring one query                                                 *)

let c_reads = Metrics.counter "pager.physical_reads"
let c_hits = Metrics.counter "pager.cache_hits"
let c_misses = Metrics.counter "pager.cache_misses"
let c_heap = Metrics.counter "ta.heap_operations"

type started = {
  s_t0 : float;
  s_reads : int;
  s_hits : int;
  s_misses : int;
  s_heap : int;
}

let start_query () =
  if not !enabled_flag then None
  else
    Some
      {
        s_t0 = Trex_util.Stopclock.now ();
        s_reads = Metrics.value c_reads;
        s_hits = Metrics.value c_hits;
        s_misses = Metrics.value c_misses;
        s_heap = Metrics.value c_heap;
      }

let finish_query started journal ~label ~strategy ~k ~degraded
    ?(fallbacks = 0) ?(breakdown = []) () =
  (* The record timestamp is wall time (absolute, human-facing); the
     duration is measured on the monotonic clock so a wall step mid-
     query cannot journal a negative or absurd latency. *)
  let now = Trex_util.Stopclock.wall () in
  let mono = Trex_util.Stopclock.now () in
  let hits = Metrics.value c_hits - started.s_hits in
  let misses = Metrics.value c_misses - started.s_misses in
  let lookups = hits + misses in
  let spans =
    if Span.enabled () then
      match Span.last () with Some s -> Span.summarize s | None -> []
    else []
  in
  ignore
    (append journal
       {
         qid = 0;
         ts = now;
         digest = digest_of label;
         label;
         strategy;
         k;
         wall_ms = (mono -. started.s_t0) *. 1e3;
         pages_read = Metrics.value c_reads - started.s_reads;
         cache_hit_ratio =
           (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
         heap_ops = Metrics.value c_heap - started.s_heap;
         degraded;
         fallbacks;
         spans = spans @ breakdown;
       })
