module Metrics = Trex_obs.Metrics

(* The pager registers this counter; resolving it by name here lets the
   guard watch physical I/O without a dependency on trex_storage. *)
let m_physical_reads = Metrics.counter "pager.physical_reads"
let m_deadline = Metrics.counter "resilience.deadline_exceeded"
let m_page_budget = Metrics.counter "resilience.page_budget_exceeded"

type reason = Deadline | Page_budget

exception Budget_exceeded of { reason : reason; detail : string }

module Stopclock = Trex_util.Stopclock

type t = {
  deadline : float option; (* absolute, Stopclock.now (monotonic) *)
  deadline_ms : float option; (* as requested, for messages *)
  page_budget : int option;
  pages_at_start : int;
  check_every : int;
  mutable ticks : int;
}

let reason_to_string = function
  | Deadline -> "deadline"
  | Page_budget -> "page_budget"

let () =
  Printexc.register_printer (function
    | Budget_exceeded { reason; detail } ->
        Some
          (Printf.sprintf "Guard.Budget_exceeded(%s: %s)"
             (reason_to_string reason) detail)
    | _ -> None)

let create ?deadline_ms ?page_budget ?(check_every = 16) () =
  {
    deadline =
      Option.map (fun ms -> Stopclock.now () +. (ms /. 1000.)) deadline_ms;
    deadline_ms;
    page_budget;
    pages_at_start = Metrics.value m_physical_reads;
    check_every = max 1 check_every;
    ticks = 0;
  }

let unlimited = create ()
let pages_used t = Metrics.value m_physical_reads - t.pages_at_start

let remaining_ms t =
  Option.map (fun d -> (d -. Stopclock.now ()) *. 1000.) t.deadline

let expired t =
  (* >= so a zero deadline expires even within the same clock tick *)
  match t.deadline with
  | Some d when Stopclock.now () >= d -> Some Deadline
  | _ -> (
      match t.page_budget with
      | Some budget when pages_used t > budget -> Some Page_budget
      | _ -> None)

let check t =
  match expired t with
  | None -> ()
  | Some Deadline ->
      Metrics.incr m_deadline;
      let ms = match t.deadline_ms with Some ms -> ms | None -> nan in
      raise
        (Budget_exceeded
           { reason = Deadline; detail = Printf.sprintf "%.1fms elapsed" ms })
  | Some Page_budget ->
      Metrics.incr m_page_budget;
      let budget = match t.page_budget with Some b -> b | None -> 0 in
      raise
        (Budget_exceeded
           {
             reason = Page_budget;
             detail =
               Printf.sprintf "%d physical reads > budget %d" (pages_used t)
                 budget;
           })

let tick t =
  if t.deadline <> None || t.page_budget <> None then begin
    t.ticks <- t.ticks + 1;
    if t.ticks >= t.check_every then begin
      t.ticks <- 0;
      check t
    end
  end
