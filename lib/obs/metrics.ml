type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

(* Bucket i (i >= 1) holds values in (base * 2^(i-1), base * 2^i];
   bucket 0 holds everything at or below [base]. 64 buckets span 1e-9
   up past 9e9, covering any duration or size this engine observes. *)
let bucket_count = 64
let bucket_base = 1e-9

type histogram = {
  h_name : string;
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter name =
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add counters_tbl name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let gauge name =
  match Hashtbl.find_opt gauges_tbl name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      Hashtbl.add gauges_tbl name g;
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram name =
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_n = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_buckets = Array.make bucket_count 0;
        }
      in
      Hashtbl.add histograms_tbl name h;
      h

let bucket_of v =
  if v <= bucket_base then 0
  else begin
    let i = 1 + int_of_float (Float.log2 (v /. bucket_base)) in
    if i < 1 then 1 else if i >= bucket_count then bucket_count - 1 else i
  end

let observe h v =
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let bucket_hi i = bucket_base *. Float.pow 2.0 (float_of_int i)

(* Representative value of bucket i: the geometric midpoint of its
   bounds, clamped to the observed range so single-bucket histograms
   report exact quantiles. *)
let bucket_mid h i =
  let mid =
    if i = 0 then bucket_base
    else sqrt (bucket_hi (i - 1) *. bucket_hi i)
  in
  Float.max h.h_min (Float.min h.h_max mid)

let quantile h q =
  if h.h_n = 0 then 0.0
  else if h.h_n = 1 then h.h_min (* the sample itself, not a bucket mid *)
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_n)) in
      if r < 1 then 1 else if r > h.h_n then h.h_n else r
    in
    let rec walk i seen =
      if i >= bucket_count then h.h_max
      else begin
        let seen = seen + h.h_buckets.(i) in
        if seen >= rank then bucket_mid h i else walk (i + 1) seen
      end
    in
    walk 0 0
  end

type histogram_snapshot = {
  n : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let histogram_snapshot h =
  if h.h_n = 0 then
    { n = 0; sum = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      n = h.h_n;
      sum = h.h_sum;
      min = h.h_min;
      max = h.h_max;
      p50 = quantile h 0.50;
      p95 = quantile h 0.95;
      p99 = quantile h 0.99;
    }

let sorted_fold tbl f =
  Hashtbl.fold (fun name v acc -> f name v :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = sorted_fold counters_tbl (fun name c -> (name, c.c_value))
let gauges () = sorted_fold gauges_tbl (fun name g -> (name, g.g_value))

let histograms () =
  sorted_fold histograms_tbl (fun name h -> (name, histogram_snapshot h))

let counters_with_prefix prefix =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix name)
    (counters ())

let counters_delta before after =
  let base = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace base name v) before;
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base name) in
      if d = 0 then None else Some (name, d))
    after

let absorb_counters ?prefix deltas =
  List.iter
    (fun (name, d) ->
      add (counter name) d;
      match prefix with
      | Some p -> add (counter (p ^ name)) d
      | None -> ())
    deltas

(* Zero in place: handed-out handles must keep pointing at the cells
   the registry reads. *)
let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters_tbl;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges_tbl;
  Hashtbl.iter
    (fun _ h ->
      h.h_n <- 0;
      h.h_sum <- 0.0;
      h.h_min <- infinity;
      h.h_max <- neg_infinity;
      Array.fill h.h_buckets 0 bucket_count 0)
    histograms_tbl

let to_json () =
  let counter_fields = List.map (fun (n, v) -> (n, Json.Int v)) (counters ()) in
  let gauge_fields = List.map (fun (n, v) -> (n, Json.Float v)) (gauges ()) in
  let histogram_fields =
    List.map
      (fun (n, s) ->
        ( n,
          Json.Obj
            [
              ("n", Json.Int s.n);
              ("sum", Json.Float s.sum);
              ("min", Json.Float s.min);
              ("max", Json.Float s.max);
              ("p50", Json.Float s.p50);
              ("p95", Json.Float s.p95);
              ("p99", Json.Float s.p99);
            ] ))
      (histograms ())
  in
  Json.Obj
    [
      ("counters", Json.Obj counter_fields);
      ("gauges", Json.Obj gauge_fields);
      ("histograms", Json.Obj histogram_fields);
    ]

let pp fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf fmt "%-36s %d@," n v) (counters ());
  List.iter (fun (n, v) -> Format.fprintf fmt "%-36s %g@," n v) (gauges ());
  List.iter
    (fun (n, s) ->
      Format.fprintf fmt "%-36s n=%d sum=%.6f p50=%.6f p95=%.6f p99=%.6f@," n
        s.n s.sum s.p50 s.p95 s.p99)
    (histograms ());
  Format.fprintf fmt "@]"
