module Types = Trex_invindex.Types
module Stopclock = Trex_util.Stopclock
module Metrics = Trex_obs.Metrics
module Guard = Trex_resilience.Guard

(* Registry totals accumulate across every run in the process; each run
   adds its [stats] counts to them when it ends. *)
let m_runs = Metrics.counter "ta.runs"
let m_ita_runs = Metrics.counter "ita.runs"
let m_early_stops = Metrics.counter "ta.early_stops"
let m_sorted = Metrics.counter "ta.sorted_accesses"
let m_heap_ops = Metrics.counter "ta.heap_operations"
let m_candidates = Metrics.counter "ta.candidates"
let m_blocks_skipped = Metrics.counter "ta.blocks_skipped"
let m_extents_skipped = Metrics.counter "ta.extents_skipped"

type stats = {
  sorted_accesses : int;
  heap_operations : int;
  heap_pushes : int;
  heap_evictions : int;
  candidates : int;
  blocks_skipped : int;
  extents_visited : int;
  extents_skipped : int;
  stopped_early : bool;
  elapsed_seconds : float;
  heap_seconds : float;
  degraded : bool;
}

type candidate = {
  c_element : Types.element;
  mutable c_worst : float; (* sum of the scores seen so far *)
  c_seen : bool array;
  c_bounds : float array; (* its extent's [last_seen]: bounds of the unseen *)
  mutable c_nseen : int;
  mutable c_slot : int; (* position in the top-k heap, -1 outside it *)
  mutable c_rank : int; (* position in the run's candidate order *)
}

(* Candidates are keyed by element position, hashed and compared as
   two ints. *)
module Candidates = Hashtbl.Make (struct
  type t = Types.element

  let equal (a : t) (b : t) = a.docid = b.docid && a.endpos = b.endpos
  let hash (e : t) = (e.docid * 65599) + e.endpos
end)

(* The top-k set: an indexed binary min-heap of at most [k] live
   candidates in reverse answer order (worst score first, then the later
   element), so the root is the k-th answer. Each member records its
   slot, so a score increase sifts in place and a candidate outside the
   heap enters only by replacing a root it beats. [ops] counts one per
   level a sift visits plus one per root comparison. *)
type topk = {
  k : int;
  mutable slots : candidate array;
  mutable size : int;
  mutable ops : int;
  mutable evictions : int; (* offers to a full heap: the loser leaves *)
}

let precedes (a : Types.element) (b : Types.element) =
  a.docid < b.docid || (a.docid = b.docid && a.endpos < b.endpos)

let below a b =
  a.c_worst < b.c_worst || (a.c_worst = b.c_worst && precedes b.c_element a.c_element)

let place h i c =
  h.slots.(i) <- c;
  c.c_slot <- i

(* Move [c] from the hole at [i] towards the root / the leaves. *)
let rec sift_up h i c =
  h.ops <- h.ops + 1;
  let parent = (i - 1) / 2 in
  if i > 0 && below c h.slots.(parent) then begin
    place h i h.slots.(parent);
    sift_up h parent c
  end
  else place h i c

let rec sift_down h i c =
  h.ops <- h.ops + 1;
  let l = (2 * i) + 1 in
  let m = if l + 1 < h.size && below h.slots.(l + 1) h.slots.(l) then l + 1 else l in
  if m < h.size && below h.slots.(m) c then begin
    place h i h.slots.(m);
    sift_down h m c
  end
  else place h i c

(* [c]'s score has just risen. *)
let offer h c =
  if c.c_slot >= 0 then sift_down h c.c_slot c
  else if h.size < h.k then begin
    if h.size = Array.length h.slots then begin
      let bigger = Array.make (min h.k (max 16 (2 * h.size))) c in
      Array.blit h.slots 0 bigger 0 h.size;
      h.slots <- bigger
    end;
    h.size <- h.size + 1;
    sift_up h (h.size - 1) c
  end
  else begin
    h.ops <- h.ops + 1;
    h.evictions <- h.evictions + 1;
    let root = h.slots.(0) in
    if below root c then begin
      root.c_slot <- -1;
      sift_down h 0 c
    end
  end

exception Truncated_rpl

(* One summary extent: its RPL readers in query-term order. An answer
   element lies in exactly one extent, and its score is the sum of its
   entries in these lists. *)
type extent = {
  readers : Rpl.Cursor.t array;
  last_seen : float array;
      (* per list, a bound on its unseen entries: the last score read,
         the head's before any read, the truncation bound at its end *)
  mutable last_read : Rpl.entry option;
  bound : float; (* the sum of the head scores: no element scores more *)
}

let run index ~sids ~terms ~k ?(ideal_heap = false) ?(floor = 0.0) ?guard () =
  if k <= 0 then invalid_arg "Ta.run: k must be positive";
  if terms = [] then invalid_arg "Ta.run: no terms";
  let clock = Stopclock.create () in
  let tick_guard () = match guard with Some g -> Guard.tick g | None -> () in
  let n = List.length terms in
  let open_extent sid =
    let readers =
      Array.of_list (List.map (fun term -> Rpl.Cursor.create index Rpl.Rpl ~term ~sid) terms)
    in
    (* A single-term query can end its lists at the floor: dropped
       entries score at most the floor, so the exhaustion threshold stays
       within it and certification below always succeeds. With several
       terms the per-list bounds sum past the floor, so the skip could
       forfeit a certifiable answer — the threshold test stops instead. *)
    if floor > 0.0 && n = 1 then Array.iter (fun c -> Rpl.Cursor.set_bound c floor) readers;
    let head c =
      match Rpl.Cursor.peek c with
      | Some e -> e.Rpl.score
      | None -> Rpl.Cursor.truncation_bound c
    in
    let last_seen = Array.map head readers in
    { readers; last_seen; last_read = None; bound = Array.fold_left ( +. ) 0.0 last_seen }
  in
  (* Highest bound first, ties in sid order. *)
  let extents =
    List.sort_uniq compare sids
    |> List.map open_extent
    |> List.stable_sort (fun a b -> Float.compare b.bound a.bound)
  in
  let candidates = Candidates.create 256 in
  (* Every candidate in first-seen order, for the can-beat scan and the
     final selection. *)
  let order = ref [||] and count = ref 0 in
  let heap = { k; slots = [||]; size = 0; ops = 0; evictions = 0 } in
  let pushes = ref 0 in
  (* [with_paused] resumes on the way out even when the guard aborts
     mid-heap-op, keeping the ITA paused-time invariant. *)
  let heap_offer c =
    if ideal_heap then
      Stopclock.with_paused clock (fun () ->
          tick_guard ();
          offer heap c)
    else begin
      tick_guard ();
      offer heap c
    end
  in
  (* Whether no element scoring at most [b] can enter the answer: it is
     below the running k-th score, or within the caller's floor (entries
     at or below it may be partial — see the interface). A score {e equal}
     to the k-th is not settled: its element may precede the k-th. *)
  let settled b =
    (heap.size >= k && b < heap.slots.(0).c_worst) || (floor > 0.0 && b <= floor)
  in
  let best c =
    let b = ref c.c_worst in
    for t = 0 to n - 1 do
      if not c.c_seen.(t) then b := !b +. c.c_bounds.(t)
    done;
    !b
  in
  (* A partial candidate is unresolved while its unseen terms could
     still raise it to an unsettled score.

     The candidates in [!order.(0 .. !cleared - 1)] are known to be
     resolved: a candidate's best score never rises (a seen score
     replaces the bound it was charged, and bounds only fall) while the
     k-th score never falls, so each is cleared once instead of
     rescanned at every check. The first uncleared candidate is the last
     witness, re-verified first. A newly seen score re-sums the best
     score in another float order, so [accept_entry] moves such a
     candidate back past the boundary; a bound that rises (an exhausted
     list's truncation bound) empties the cleared prefix. The answer is
     exactly that of a full scan. *)
  let cleared = ref 0 in
  let rec some_candidate_unresolved () =
    !cleared < !count
    &&
    let c = !order.(!cleared) in
    (c.c_nseen < n
    &&
    let b = best c in
    b > c.c_worst && not (settled b))
    || begin
         incr cleared;
         some_candidate_unresolved ()
       end
  in
  (* Whether no unseen element of [x] can enter the answer. A
     single-term extent also settles a tie with the k-th score when its
     last read entry ranks at or after the k-th: its unseen entries tie
     only behind that entry, in the list's element order. *)
  let unseen_settled x =
    let tau = Array.fold_left ( +. ) 0.0 x.last_seen in
    settled tau
    || n = 1
       && heap.size >= k
       &&
       let kth = heap.slots.(0) in
       tau = kth.c_worst
       &&
       match x.last_read with
       | Some e -> e.score = tau && not (precedes e.element kth.c_element)
       | None -> false
  in
  let can_stop x = unseen_settled x && not (some_candidate_unresolved ()) in
  let set_last_seen x t s =
    if s > x.last_seen.(t) then cleared := 0;
    x.last_seen.(t) <- s
  in
  let recheck c =
    decr cleared;
    let other = !order.(!cleared) in
    !order.(c.c_rank) <- other;
    other.c_rank <- c.c_rank;
    !order.(!cleared) <- c;
    c.c_rank <- !cleared
  in
  let add_candidate x (element : Types.element) =
    let c =
      {
        c_element = element;
        c_worst = 0.0;
        c_seen = Array.make n false;
        c_bounds = x.last_seen;
        c_nseen = 0;
        c_slot = -1;
        c_rank = !count;
      }
    in
    Candidates.add candidates element c;
    if !count = Array.length !order then begin
      let bigger = Array.make (max 256 (2 * !count)) c in
      Array.blit !order 0 bigger 0 !count;
      order := bigger
    end;
    !order.(!count) <- c;
    incr count;
    c
  in
  let accept_entry x t (entry : Rpl.entry) =
    set_last_seen x t entry.score;
    x.last_read <- Some entry;
    let c =
      match Candidates.find_opt candidates entry.element with
      | Some c -> c
      | None -> add_candidate x entry.element
    in
    if not c.c_seen.(t) then begin
      c.c_seen.(t) <- true;
      c.c_nseen <- c.c_nseen + 1;
      c.c_worst <- c.c_worst +. entry.score;
      if c.c_rank < !cleared && c.c_nseen < n then recheck c;
      incr pushes;
      heap_offer c
    end
  in
  (* Read [x]'s lists round-robin until the threshold test proves that
     nothing unseen in it can enter the answer (true) or every list
     ends (false). The test runs after every round: an extent may hold
     only a few entries, and the cleared prefix keeps the test cheap. *)
  let visit x =
    let rec rounds () =
      let progressed = ref false in
      for t = 0 to n - 1 do
        tick_guard ();
        match Rpl.Cursor.next x.readers.(t) with
        | Some entry ->
            progressed := true;
            accept_entry x t entry
        | None ->
            (* Entries past a truncated prefix (stored or bound-skipped)
               score at most the recorded bound. *)
            set_last_seen x t (Rpl.Cursor.truncation_bound x.readers.(t))
      done;
      !progressed && (can_stop x || rounds ())
    in
    rounds ()
  in
  let visited = ref 0 and skipped = ref 0 and stopped = ref false in
  let degraded = ref false in
  (* Extents in descending bound order, sharing the candidates and the
     top-k heap: the first extent whose bound is settled ends the run,
     since every later bound is at most its own. A visit that ran out
     with a truncated list owes certification, checked at the end
     against the final k-th score. On guard expiry the partial sums so
     far are salvaged as a best-effort (degraded) answer: each is a
     lower bound of the true score, so the prefix is sound, just
     possibly incomplete. Degraded answers are tagged, not certified. *)
  (try
     let rec go owed = function
       | [] -> owed
       | x :: rest when settled x.bound ->
           skipped := 1 + List.length rest;
           owed
       | x :: rest ->
           incr visited;
           let ran_out = not (visit x) in
           if not ran_out then stopped := true;
           let owes = ran_out && Array.exists Rpl.Cursor.truncated x.readers in
           go (if owes then x :: owed else owed) rest
     in
     (* The explicit truncated flag — not [bound > 0.0] — decides
        whether certification is owed: a truncated list whose dropped
        entries all scored 0.0 is still incomplete. *)
     if not (List.for_all can_stop (go [] extents)) then raise Truncated_rpl
   with Guard.Budget_exceeded _ -> degraded := true);
  let top =
    Answer.select k (fun emit ->
        for i = 0 to !count - 1 do
          let c = !order.(i) in
          emit c.c_element c.c_worst
        done)
  in
  let elapsed = Stopclock.elapsed clock in
  let sum f =
    List.fold_left (fun acc x -> Array.fold_left (fun acc c -> acc + f c) acc x.readers) 0 extents
  in
  let total_reads = sum Rpl.Cursor.entries_read in
  let total_blocks_skipped = sum Rpl.Cursor.blocks_skipped in
  let stopped_early = !stopped || !skipped > 0 in
  Metrics.incr (if ideal_heap then m_ita_runs else m_runs);
  if stopped_early then Metrics.incr m_early_stops;
  Metrics.add m_sorted total_reads;
  Metrics.add m_heap_ops heap.ops;
  Metrics.add m_candidates !count;
  Metrics.add m_blocks_skipped total_blocks_skipped;
  Metrics.add m_extents_skipped !skipped;
  ( top,
    {
      sorted_accesses = total_reads;
      heap_operations = heap.ops;
      heap_pushes = !pushes;
      heap_evictions = heap.evictions;
      candidates = !count;
      blocks_skipped = total_blocks_skipped;
      extents_visited = !visited;
      extents_skipped = !skipped;
      stopped_early;
      elapsed_seconds = elapsed;
      heap_seconds = Stopclock.paused_time clock;
      degraded = !degraded;
    } )
