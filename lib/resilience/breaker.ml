module Metrics = Trex_obs.Metrics
module Stopclock = Trex_util.Stopclock

let m_trips = Metrics.counter "resilience.breaker_trips"
let m_closes = Metrics.counter "resilience.breaker_closes"

type state = Closed | Open | Half_open

type t = {
  name : string;
  failure_threshold : int;
  mutable cooldown_s : float;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable last_reason : string option;
  mutable probe_inflight : bool;
      (* Half_open has admitted a probe whose outcome is unresolved;
         further callers are rejected until record_success/record_failure
         (or trip) settles it, so an abandoned probe cannot leak the
         half-open slot. *)
}

let create ?(failure_threshold = 3) ?(cooldown_s = 30.0) name =
  {
    name;
    failure_threshold = max 1 failure_threshold;
    cooldown_s;
    state = Closed;
    consecutive_failures = 0;
    opened_at = 0.0;
    last_reason = None;
    probe_inflight = false;
  }

let name t = t.name
let state t = t.state
let last_reason t = t.last_reason
let set_cooldown t s = t.cooldown_s <- s
let cooldown_s t = t.cooldown_s

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let trip t ~reason =
  if t.state <> Open then Metrics.incr m_trips;
  t.state <- Open;
  t.opened_at <- Stopclock.now ();
  t.last_reason <- Some reason;
  t.probe_inflight <- false

let record_failure t ~reason =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match t.state with
  | Half_open -> trip t ~reason
  | Closed when t.consecutive_failures >= t.failure_threshold ->
      trip t ~reason
  | Closed | Open -> ()

let record_success t =
  if t.state <> Closed then Metrics.incr m_closes;
  t.state <- Closed;
  t.consecutive_failures <- 0;
  t.probe_inflight <- false

let allow t =
  match t.state with
  | Closed -> true
  | Half_open ->
      if t.probe_inflight then false
      else begin
        t.probe_inflight <- true;
        true
      end
  | Open ->
      if Stopclock.now () -. t.opened_at >= t.cooldown_s then begin
        t.state <- Half_open;
        t.probe_inflight <- true;
        true
      end
      else false

let probing t = t.state = Half_open && t.probe_inflight

let ready t =
  match t.state with
  | Closed -> true
  | Half_open -> not t.probe_inflight
  | Open -> Stopclock.now () -. t.opened_at >= t.cooldown_s
