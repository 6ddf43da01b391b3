type group = {
  g_hist : Metrics.histogram;
  mutable g_label : string;
  mutable g_n : int;
  mutable g_sum_ms : float;
  mutable g_degraded : int;
}

type t = {
  slow_capacity : int;
  digests : (string, group) Hashtbl.t;
  strategies : (string, group) Hashtbl.t;
  mutable digest_order : string list; (* first-seen, newest first *)
  mutable strategy_order : string list;
  mutable slow : Journal.record list; (* slowest first, <= slow_capacity *)
  mutable total : int;
}

let create ?(slow_capacity = 10) () =
  {
    slow_capacity;
    digests = Hashtbl.create 16;
    strategies = Hashtbl.create 8;
    digest_order = [];
    strategy_order = [];
    slow = [];
    total = 0;
  }

let group tbl order hist_name key =
  match Hashtbl.find_opt tbl key with
  | Some g -> g
  | None ->
      let g =
        {
          g_hist = Metrics.histogram hist_name;
          g_label = "";
          g_n = 0;
          g_sum_ms = 0.0;
          g_degraded = 0;
        }
      in
      Hashtbl.add tbl key g;
      order := key :: !order;
      g

let feed g (r : Journal.record) =
  g.g_n <- g.g_n + 1;
  g.g_sum_ms <- g.g_sum_ms +. r.wall_ms;
  if r.label <> "" then g.g_label <- r.label;
  if r.degraded then g.g_degraded <- g.g_degraded + 1;
  Metrics.observe g.g_hist r.wall_ms

let insert_slow t (r : Journal.record) =
  let rec ins = function
    | [] -> [ r ]
    | x :: _ as l when r.Journal.wall_ms > x.Journal.wall_ms -> r :: l
    | x :: rest -> x :: ins rest
  in
  let l = ins t.slow in
  t.slow <-
    (if List.length l > t.slow_capacity then List.filteri (fun i _ -> i < t.slow_capacity) l
     else l)

let observe t (r : Journal.record) =
  t.total <- t.total + 1;
  let order = ref t.digest_order in
  let g =
    group t.digests order ("profile.query." ^ r.digest ^ ".ms") r.digest
  in
  t.digest_order <- !order;
  feed g r;
  let order = ref t.strategy_order in
  let g =
    group t.strategies order
      ("profile.strategy." ^ r.strategy ^ ".ms")
      r.strategy
  in
  t.strategy_order <- !order;
  feed g r;
  insert_slow t r

let of_records ?slow_capacity records =
  let t = create ?slow_capacity () in
  List.iter (observe t) records;
  t

let total t = t.total

type stat = {
  key : string;
  label : string;
  n : int;
  share : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  degraded : int;
}

let stat_of t key g =
  let s = Metrics.histogram_snapshot g.g_hist in
  {
    key;
    label = g.g_label;
    n = g.g_n;
    share =
      (if t.total = 0 then 0.0 else float_of_int g.g_n /. float_of_int t.total);
    mean_ms = (if g.g_n = 0 then 0.0 else g.g_sum_ms /. float_of_int g.g_n);
    p50_ms = s.Metrics.p50;
    p95_ms = s.Metrics.p95;
    p99_ms = s.Metrics.p99;
    max_ms = s.Metrics.max;
    degraded = g.g_degraded;
  }

let rows tbl order t =
  List.rev order
  |> List.map (fun key -> stat_of t key (Hashtbl.find tbl key))
  |> List.stable_sort (fun a b -> compare b.n a.n)

let by_digest t = rows t.digests t.digest_order t
let by_strategy t = rows t.strategies t.strategy_order t
let slowest t = t.slow

let stat_to_json s =
  Json.Obj
    [
      ("key", Json.String s.key);
      ("label", Json.String s.label);
      ("n", Json.Int s.n);
      ("share", Json.Float s.share);
      ("mean_ms", Json.Float s.mean_ms);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("max_ms", Json.Float s.max_ms);
      ("degraded", Json.Int s.degraded);
    ]

let to_json t =
  Json.Obj
    [
      ("total", Json.Int t.total);
      ("queries", Json.List (List.map stat_to_json (by_digest t)));
      ("strategies", Json.List (List.map stat_to_json (by_strategy t)));
      ("slowest", Json.List (List.map Journal.record_to_json t.slow));
    ]

let pp_stats fmt ~header stats =
  Format.fprintf fmt "@[<v>%s@," header;
  Format.fprintf fmt "  %-10s %5s %6s %9s %9s %9s %4s  %s@," "key" "n"
    "share" "p50 ms" "p95 ms" "max ms" "dgr" "label";
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-10s %5d %5.1f%% %9.3f %9.3f %9.3f %4d  %s@,"
        s.key s.n (100.0 *. s.share) s.p50_ms s.p95_ms s.max_ms s.degraded
        s.label)
    stats;
  Format.fprintf fmt "@]"

let pp fmt t =
  Format.fprintf fmt "@[<v>profile: %d queries, %d distinct@," t.total
    (Hashtbl.length t.digests);
  pp_stats fmt ~header:"by query digest:" (by_digest t);
  pp_stats fmt ~header:"by strategy:" (by_strategy t);
  Format.fprintf fmt "slowest:@,";
  List.iter (fun r -> Format.fprintf fmt "  %a@," Journal.pp_record r) t.slow;
  Format.fprintf fmt "@]"
