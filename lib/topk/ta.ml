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

type stats = {
  sorted_accesses : int;
  heap_operations : int;
  heap_pushes : int;
  heap_evictions : int;
  candidates : int;
  blocks_skipped : int;
  stopped_early : bool;
  elapsed_seconds : float;
  heap_seconds : float;
  degraded : bool;
}

type candidate = {
  c_element : Types.element;
  mutable c_worst : float; (* sum of the scores seen so far *)
  c_seen : bool array;
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
   candidates, worst score first, then docid, then endpos. Each member
   records its slot, so a score increase sifts in place and a candidate
   outside the heap enters only by replacing a root it beats. [ops]
   counts one per level a sift visits plus one per root comparison. *)
type topk = {
  k : int;
  mutable slots : candidate array;
  mutable size : int;
  mutable ops : int;
  mutable evictions : int; (* offers to a full heap: the loser leaves *)
}

let below a b =
  a.c_worst < b.c_worst
  || a.c_worst = b.c_worst
     &&
     let ea = a.c_element and eb = b.c_element in
     ea.docid < eb.docid || (ea.docid = eb.docid && ea.endpos < eb.endpos)

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

let run index ~sids ~terms ~k ?(ideal_heap = false) ?(floor = 0.0) ?guard () =
  if k <= 0 then invalid_arg "Ta.run: k must be positive";
  if terms = [] then invalid_arg "Ta.run: no terms";
  let clock = Stopclock.create () in
  let tick_guard () = match guard with Some g -> Guard.tick g | None -> () in
  let n = List.length terms in
  let cursor_of term =
    let c = Rpl.Term_cursor.create index ~term ~sids in
    (* A single-term query can end its stream at the floor: dropped
       entries score at most the floor, so the exhaustion threshold
       stays within [w] and certification below always succeeds. With
       several terms the per-stream bounds sum past the floor, so the
       skip could forfeit a certifiable answer — leave it off and let
       the threshold test stop the run instead. *)
    if floor > 0.0 && n = 1 then Rpl.Term_cursor.set_bound c floor;
    c
  in
  let cursors = Array.of_list (List.map cursor_of terms) in
  let last_seen = Array.make n infinity in
  let exhausted = Array.make n false in
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
  let stopped_early = ref false in
  let current_w () = if heap.size < k then 0.0 else heap.slots.(0).c_worst in
  let threshold () = Array.fold_left ( +. ) 0.0 last_seen in
  (* Would any candidate with unseen terms still be able to beat w?
     [last_seen] already holds the truncation bound once a stream is
     exhausted, so it bounds the unseen contribution either way.

     The candidates in [!order.(0 .. !cleared - 1)] are known not to:
     a candidate's best score never rises (a seen score replaces the
     bound it was charged, and bounds only fall) while w never falls,
     so each is cleared once instead of rescanned at every check. The
     first uncleared candidate is the last witness, re-verified first.
     A newly seen score re-sums the best score in another float order,
     so [accept_entry] moves such a candidate back past the boundary;
     a bound that rises (an exhausted stream's truncation bound) empties
     the cleared prefix. The answer is exactly that of a full scan. *)
  let cleared = ref 0 in
  let best c =
    let b = ref c.c_worst in
    for t = 0 to n - 1 do
      if not c.c_seen.(t) then b := !b +. last_seen.(t)
    done;
    !b
  in
  let rec some_candidate_can_beat w =
    !cleared < !count
    &&
    let c = !order.(!cleared) in
    (c.c_nseen < n && best c > w)
    || begin
         incr cleared;
         some_candidate_can_beat w
       end
  in
  let set_last_seen t s =
    if s > last_seen.(t) then cleared := 0;
    last_seen.(t) <- s
  in
  let recheck c =
    decr cleared;
    let other = !order.(!cleared) in
    !order.(c.c_rank) <- other;
    other.c_rank <- c.c_rank;
    !order.(!cleared) <- c;
    c.c_rank <- !cleared
  in
  let add_candidate (element : Types.element) =
    let c =
      {
        c_element = element;
        c_worst = 0.0;
        c_seen = Array.make n false;
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
  let accept_entry t (entry : Rpl.entry) =
    set_last_seen t entry.score;
    let c =
      match Candidates.find_opt candidates entry.element with
      | Some c -> c
      | None -> add_candidate entry.element
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
  let check_interval = 16 in
  let until_next_check = ref check_interval in
  let running = ref true in
  let degraded = ref false in
  (* On guard expiry the partial sums accumulated so far are salvaged
     as a best-effort (degraded) answer: every partial sum is a lower
     bound of the true score, so the prefix is sound, just possibly
     incomplete. Certification is skipped — degraded answers are not
     certified, they are tagged. *)
  (try
     while !running do
       let progressed = ref false in
       for t = 0 to n - 1 do
         if not exhausted.(t) then begin
           tick_guard ();
           match Rpl.Term_cursor.next cursors.(t) with
           | Some entry ->
               progressed := true;
               accept_entry t entry
           | None ->
               exhausted.(t) <- true;
               (* Entries past a truncated prefix (stored or
                  bound-skipped) score at most the recorded bound. *)
               set_last_seen t (Rpl.Term_cursor.truncation_bound cursors.(t))
         end
       done;
       if not !progressed then running := false
       else begin
         decr until_next_check;
         if !until_next_check <= 0 then begin
           until_next_check := check_interval;
           let tau = threshold () in
           (* The floor acts as a k-th score already achieved elsewhere
              (scatter-gather): entries at or below it cannot enter the
              global top-k, so stopping is sound as soon as neither the
              threshold nor any partial candidate can exceed
              [max w floor] — even before k candidates are live. *)
           let w = Float.max (current_w ()) floor in
           if
             (heap.size >= k || floor > 0.0)
             && w >= tau
             && not (some_candidate_can_beat w)
           then begin
             stopped_early := true;
             running := false
           end
         end
       end
     done;
     (* With truncated prefixes an exhausted run must still certify the
        top-k before answering: unseen (dropped) entries are bounded by
        the truncation bounds, so the usual threshold test applies. The
        explicit truncated flag — not [bound > 0.0] — decides whether
        certification is owed: a truncated list whose dropped entries
        all scored 0.0 is still incomplete. *)
     if (not !stopped_early) && Array.exists Rpl.Term_cursor.truncated cursors
     then begin
       let tau = threshold () in
       let w = Float.max (current_w ()) floor in
       if
         not
           ((heap.size >= k || floor > 0.0)
           && w >= tau
           && not (some_candidate_can_beat w))
       then raise Truncated_rpl
     end
   with Guard.Budget_exceeded _ -> degraded := true);
  let top =
    Answer.select k (fun emit ->
        for i = 0 to !count - 1 do
          let c = !order.(i) in
          emit c.c_element c.c_worst
        done)
  in
  let elapsed = Stopclock.elapsed clock in
  let total_reads =
    Array.fold_left (fun acc c -> acc + Rpl.Term_cursor.entries_read c) 0 cursors
  in
  let total_blocks_skipped =
    Array.fold_left (fun acc c -> acc + Rpl.Term_cursor.blocks_skipped c) 0 cursors
  in
  Metrics.incr (if ideal_heap then m_ita_runs else m_runs);
  if !stopped_early then Metrics.incr m_early_stops;
  Metrics.add m_sorted total_reads;
  Metrics.add m_heap_ops heap.ops;
  Metrics.add m_candidates !count;
  Metrics.add m_blocks_skipped total_blocks_skipped;
  ( top,
    {
      sorted_accesses = total_reads;
      heap_operations = heap.ops;
      heap_pushes = !pushes;
      heap_evictions = heap.evictions;
      candidates = !count;
      blocks_skipped = total_blocks_skipped;
      stopped_early = !stopped_early;
      elapsed_seconds = elapsed;
      heap_seconds = Stopclock.paused_time clock;
      degraded = !degraded;
    } )
