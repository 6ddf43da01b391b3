module Prng = Trex_util.Prng

type jitter = No_jitter | Decorrelated of { seed : int }

type policy = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  jitter : jitter;
}

let default_policy =
  { max_attempts = 4; base_delay_ms = 1.0; max_delay_ms = 16.0; jitter = No_jitter }

let delay_ms policy ~retry_index =
  Float.min policy.max_delay_ms
    (policy.base_delay_ms *. Float.pow 2.0 (float_of_int retry_index))

let backoff_delays_ms ?(salt = 0) policy =
  let n = max 0 (policy.max_attempts - 1) in
  match policy.jitter with
  | No_jitter -> List.init n (fun i -> delay_ms policy ~retry_index:i)
  | Decorrelated { seed } ->
      (* Decorrelated jitter (the "sleep = min(cap, uniform(base,
         prev*3))" recurrence): each delay is drawn from a window that
         grows with the previous *realized* delay, so a fleet of peers
         that failed at the same instant spreads out instead of
         re-converging on the doubling schedule's fixed points. Seeded
         through a splitmix PRNG — same (seed, salt) replays the same
         schedule, different salts (one per peer) decorrelate. *)
      let rng = Prng.create (seed lxor (salt * 0x9e3779b9)) in
      let prev = ref policy.base_delay_ms in
      List.init n (fun _ ->
          let hi = Float.max policy.base_delay_ms (!prev *. 3.0) in
          let d =
            Float.min policy.max_delay_ms
              (policy.base_delay_ms
              +. Prng.float rng (hi -. policy.base_delay_ms))
          in
          prev := d;
          d)
