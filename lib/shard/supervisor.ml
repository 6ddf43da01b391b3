module Env = Trex_storage.Env
module Index = Trex_invindex.Index
module Strategy = Trex_topk.Strategy
module Breaker = Trex_resilience.Breaker
module Framing = Trex_util.Framing
module Stopclock = Trex_util.Stopclock
module Obs = Trex_obs
module Metrics = Trex_obs.Metrics

let m_spawns = Metrics.counter "supervisor.spawns"
let m_restarts = Metrics.counter "supervisor.restarts"
let m_hb_timeouts = Metrics.counter "supervisor.heartbeat_timeouts"
let m_kills = Metrics.counter "supervisor.kills"
let m_escalations = Metrics.counter "supervisor.escalations"

type config = {
  heartbeat_interval_s : float;
  heartbeat_timeout_s : float;
  deadline_grace_ms : float;
  max_restarts : int;
  connect_timeout_s : float;
}

let default_config =
  {
    heartbeat_interval_s = 0.5;
    heartbeat_timeout_s = 2.0;
    deadline_grace_ms = 250.0;
    max_restarts = 3;
    connect_timeout_s = 1.0;
  }

(* Where a shard's worker lives: a fork/exec'd child on a socketpair,
   or a long-lived remote process reached over TCP. *)
type endpoint = Local | Tcp of string

type worker_state = Starting | Ready | Busy | Stopped | Escalated

type worker_health = {
  w_shard : string;
  w_state : worker_state;
  w_pid : int option;
  w_restarts : int;
  w_total_restarts : int;
  w_breaker : Breaker.state;
  w_beat_age_s : float option;
}

(* One live worker conversation: the coordinator's end of the
   socketpair (or TCP connection — then [p_pid = None]) and the
   incremental frame decoder for its byte stream. *)
type proc = {
  p_pid : int option;
  p_fd : Unix.file_descr;
  p_decoder : Framing.Decoder.t;
}

type phase =
  | P_starting of float  (** spawn time, awaiting Hello *)
  | P_ready
  | P_busy  (** a query dispatch is outstanding *)
  | P_stopped of float  (** dead; respawn not before this time *)
  | P_escalated  (** restarts exhausted; breaker owns recovery *)

type worker = {
  info : Shard.shard_info;
  endpoint : endpoint;
  breaker : Breaker.t;
  mutable proc : proc option;
  mutable phase : phase;
  mutable restarts : int;  (* consecutive, reset by a successful answer *)
  mutable total_restarts : int;  (* lifetime deaths, never reset *)
  mutable last_beat : float;  (* Stopclock.now of last hello/pong/answer *)
  mutable ping_seq : int;
  mutable ping_outstanding : (int * float) option;
  mutable pending_fault : string option;
}

type t = {
  t_dir : string;
  config : config;
  workers : worker list;  (* ascending base *)
  mutable closed : bool;
  mutable qseq : int;  (* trace-id sequence for supervised queries *)
  journal : Obs.Journal.t Lazy.t;
}

let dir t = t.t_dir
let shards t = List.map (fun w -> w.info) t.workers

let find_worker t name =
  match List.find_opt (fun w -> w.info.Shard.name = name) t.workers with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Supervisor: unknown shard %S" name)

let breaker t name = (find_worker t name).breaker

let worker_pid t name =
  Option.bind (find_worker t name).proc (fun p -> p.p_pid)

let set_fault t ~shard spec = (find_worker t shard).pending_fault <- spec

(* ---- spawning ---- *)

(* "HOST:PORT" → sockaddr. Raises [Invalid_argument] on junk — a bad
   address is a configuration error, not a transient fault. *)
let sockaddr_of_string addr =
  match String.rindex_opt addr ':' with
  | None -> invalid_arg (Printf.sprintf "bad address %S (want HOST:PORT)" addr)
  | Some i -> (
      let host = String.sub addr 0 i in
      let port =
        match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
        | Some p when p >= 0 && p < 65536 -> p
        | _ -> invalid_arg (Printf.sprintf "bad port in address %S" addr)
      in
      let host = if host = "" then "127.0.0.1" else host in
      match Unix.inet_addr_of_string host with
      | ip -> Unix.ADDR_INET (ip, port)
      | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              invalid_arg (Printf.sprintf "cannot resolve host %S" host)
          | { Unix.h_addr_list; _ } -> Unix.ADDR_INET (h_addr_list.(0), port)))

(* Bounded non-blocking connect: None on refusal or timeout (the
   caller schedules a jittered reconnect), Some fd — blocking again —
   on success. *)
let connect_with_timeout sockaddr ~timeout_s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  (* Frames are whole requests: Nagle would only hold them back. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  let fail () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None
  in
  let finish () =
    match Unix.getsockopt_error fd with
    | None ->
        Unix.clear_nonblock fd;
        Some fd
    | Some _ -> fail ()
  in
  match Unix.connect fd sockaddr with
  | () -> finish ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
      let deadline = Stopclock.now () +. timeout_s in
      let rec wait () =
        let remaining = deadline -. Stopclock.now () in
        if remaining <= 0.0 then fail ()
        else
          match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> wait ()
          | _, _ :: _, _ -> finish ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
  | exception Unix.Unix_error _ -> fail ()

let handshaking w pid fd =
  w.proc <- Some { p_pid = pid; p_fd = fd; p_decoder = Framing.Decoder.create () };
  w.phase <- P_starting (Stopclock.now ());
  w.ping_outstanding <- None

let spawn_local t w =
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Later spawns' execs must not inherit this worker's coordinator
     end, or a dead worker's EOF would never arrive. *)
  Unix.set_close_on_exec coord_fd;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Child: the socketpair becomes stdin/stdout, then exec the
         coordinator's own binary in worker mode. *)
      Unix.dup2 worker_fd Unix.stdin;
      Unix.dup2 worker_fd Unix.stdout;
      if worker_fd <> Unix.stdin && worker_fd <> Unix.stdout then
        Unix.close worker_fd;
      let prog = Sys.executable_name in
      let argv =
        [| prog; "shard-worker"; "--dir"; t.t_dir; "--shard"; w.info.Shard.name |]
      in
      (try Unix.execv prog argv with _ -> ());
      exit 127
  | pid ->
      Unix.close worker_fd;
      handshaking w (Some pid) coord_fd

(* Forward-declared: remote connect failures reuse the death/backoff
   path, which is defined below. *)
let on_connect_failure = ref (fun _t _w _reason -> ())

let spawn_remote t w addr =
  match connect_with_timeout (sockaddr_of_string addr) ~timeout_s:t.config.connect_timeout_s with
  | Some fd -> handshaking w None fd
  | None ->
      !on_connect_failure t w
        (Printf.sprintf "connect to %s refused or timed out" addr)

let spawn t w =
  Metrics.incr m_spawns;
  match w.endpoint with
  | Local -> spawn_local t w
  | Tcp addr -> spawn_remote t w addr

(* ---- death and restart ---- *)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_proc p =
  (* A remote worker has no pid to kill: dropping the connection is the
     kill — the worker notices EOF/EPIPE and returns to accept. *)
  (match p.p_pid with
  | Some pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid
  | None -> ());
  try Unix.close p.p_fd with Unix.Unix_error _ -> ()

(* The worker is gone (exit, EPIPE, corrupt stream, heartbeat timeout,
   deadline kill). Schedule the restart — 10 ms doubling per consecutive
   restart, capped at 16 ms: 10, 16, 16 ms under the default
   [max_restarts] — or escalate to the breaker once the restart budget
   is spent. A death while the breaker was half-open fails the probe
   explicitly so the slot is not leaked. *)
let on_death t w reason =
  (match w.proc with Some p -> kill_proc p | None -> ());
  w.proc <- None;
  w.ping_outstanding <- None;
  w.total_restarts <- w.total_restarts + 1;
  if Breaker.probing w.breaker then
    Breaker.record_failure w.breaker ~reason:("probe worker died: " ^ reason);
  if w.restarts >= t.config.max_restarts then begin
    w.phase <- P_escalated;
    Metrics.incr m_escalations;
    if Breaker.state w.breaker <> Breaker.Open then
      Breaker.trip w.breaker
        ~reason:
          (Printf.sprintf "%d consecutive worker restarts; last: %s" w.restarts
             reason)
  end
  else begin
    let delay_ms = Float.min 16.0 (10.0 *. Float.pow 2.0 (float_of_int w.restarts)) in
    w.restarts <- w.restarts + 1;
    w.phase <- P_stopped (Stopclock.now () +. (delay_ms /. 1000.0));
    Metrics.incr m_restarts
  end

let () = on_connect_failure := fun t w reason -> on_death t w reason

(* ---- frame I/O ---- *)

let rec eintr_read fd b =
  match Unix.read fd b 0 (Bytes.length b) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> eintr_read fd b
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

let send t w msg =
  match w.proc with
  | None -> false
  | Some p -> (
      match Framing.append p.p_fd (Wire.encode_request msg) with
      | () -> true
      | exception Unix.Unix_error _ ->
          on_death t w "write to worker failed (EPIPE)";
          false)

let readable fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Pump one worker's fd without blocking: read whatever is buffered,
   hand every complete frame to [handle]. Returns [false] when the
   worker died (EOF / corrupt stream) — [on_death] has already run. *)
let pump t w ~handle =
  match w.proc with
  | None -> false
  | Some p -> (
      let rec frames () =
        match Framing.Decoder.next p.p_decoder with
        | Some payload ->
            handle (Wire.decode_response payload);
            frames ()
        | None -> true
      in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        if readable [ p.p_fd ] 0.0 = [] then true
        else
          match eintr_read p.p_fd chunk with
          | 0 ->
              on_death t w "worker exited (EOF)";
              false
          | n ->
              Framing.Decoder.feed p.p_decoder chunk 0 n;
              if frames () then drain () else false
      in
      match drain () with
      | alive -> alive
      | exception (Framing.Corrupt_frame e | Wire.Protocol_error e) ->
          on_death t w ("protocol corruption: " ^ e);
          false)

(* Frames that can arrive outside a query gather. *)
let idle_handle w = function
  | Wire.Hello _ ->
      w.last_beat <- Stopclock.now ();
      w.phase <- P_ready;
      if Breaker.probing w.breaker then Breaker.record_success w.breaker
  | Wire.Pong seq -> (
      (* Only a Pong matching the outstanding Ping counts as a beat: a
         stale seq (e.g. from a pre-restart worker incarnation, or a
         worker echoing garbage) must neither clear the outstanding
         ping nor refresh liveness — otherwise a wedged worker could
         dodge the heartbeat timeout forever on replayed Pongs. *)
      match w.ping_outstanding with
      | Some (s, _) when s = seq ->
          w.last_beat <- Stopclock.now ();
          w.ping_outstanding <- None
      | _ -> ())
  | Wire.Answer _ -> () (* stale answer from an abandoned query: drop *)
  | Wire.Client_answer _ | Wire.Shed _ | Wire.Drain ->
      () (* client-facing messages have no business on a worker stream *)

(* ---- supervision tick ---- *)

let tick t =
  if not t.closed then
    let now = Stopclock.now () in
    List.iter
      (fun w ->
        match w.phase with
        | P_stopped until -> if now >= until then spawn t w
        | P_escalated ->
            (* The breaker owns recovery: once the cooldown admits a
               half-open probe, the probe is a fresh worker process. *)
            if Breaker.allow w.breaker then spawn t w
        | P_starting since ->
            if pump t w ~handle:(idle_handle w) then
              if
                (match w.phase with P_starting _ -> true | _ -> false)
                && now -. since > t.config.heartbeat_timeout_s
              then begin
                Metrics.incr m_kills;
                on_death t w "readiness handshake timed out"
              end
        | P_ready ->
            if pump t w ~handle:(idle_handle w) then (
              match w.ping_outstanding with
              | Some (_, sent) when now -. sent > t.config.heartbeat_timeout_s ->
                  Metrics.incr m_hb_timeouts;
                  Metrics.incr m_kills;
                  on_death t w "heartbeat timeout"
              | Some _ -> ()
              | None ->
                  if now -. w.last_beat >= t.config.heartbeat_interval_s then begin
                    w.ping_seq <- w.ping_seq + 1;
                    if send t w (Wire.Ping w.ping_seq) then
                      w.ping_outstanding <- Some (w.ping_seq, now)
                  end)
        | P_busy -> () (* the query gather owns this fd right now *))
      t.workers

let await_healthy ?(timeout_s = 5.0) t =
  let deadline = Stopclock.now () +. timeout_s in
  let rec go () =
    tick t;
    if List.for_all (fun w -> w.phase = P_ready) t.workers then true
    else if Stopclock.now () >= deadline then false
    else begin
      (* Sleep on the starting workers' fds so hellos wake us early. *)
      let fds =
        List.filter_map
          (fun w ->
            match (w.phase, w.proc) with
            | (P_starting _ | P_ready), Some p -> Some p.p_fd
            | _ -> None)
          t.workers
      in
      ignore (readable fds 0.01);
      go ()
    end
  in
  go ()

(* ---- lifecycle ---- *)

let create ?(config = default_config) ?(remote = []) dir =
  (* A worker death between our write and the kernel's delivery must
     surface as EPIPE on the write, not SIGPIPE to the coordinator. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let infos = Shard.load_map dir in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun i -> i.Shard.name = name) infos) then
        invalid_arg (Printf.sprintf "Supervisor: remote endpoint for unknown shard %S" name))
    remote;
  let t =
    {
      t_dir = dir;
      config;
      workers =
        List.map
          (fun info ->
            {
              info;
              endpoint =
                (match List.assoc_opt info.Shard.name remote with
                | Some addr -> Tcp addr
                | None -> Local);
              breaker = Breaker.create ("shard." ^ info.Shard.name);
              proc = None;
              phase = P_stopped 0.0;
              restarts = 0;
              total_restarts = 0;
              last_beat = 0.0;
              ping_seq = 0;
              ping_outstanding = None;
              pending_fault = None;
            })
          infos;
      closed = false;
      qseq = 0;
      journal = Shard.coordinator_journal dir;
    }
  in
  List.iter (fun w -> spawn t w) t.workers;
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun w ->
        match w.proc with
        | None -> ()
        | Some p ->
            (match p.p_pid with
            | Some pid ->
                (try Framing.append p.p_fd (Wire.encode_request Wire.Shutdown)
                 with Unix.Unix_error _ -> ());
                (* Give the worker a moment to exit cleanly, then insist. *)
                let rec wait tries =
                  match Unix.waitpid [ Unix.WNOHANG ] pid with
                  | 0, _ ->
                      if tries > 0 then begin
                        ignore (Unix.select [] [] [] 0.02);
                        wait (tries - 1)
                      end
                      else begin
                        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                        reap pid
                      end
                  | _ -> ()
                  | exception Unix.Unix_error _ -> ()
                in
                wait 25
            | None ->
                (* A remote worker outlives this coordinator by design:
                   no Shutdown — just hang up, it returns to accept. *)
                ());
            (try Unix.close p.p_fd with Unix.Unix_error _ -> ());
            w.proc <- None)
      t.workers;
    if Lazy.is_val t.journal then Obs.Journal.close (Lazy.force t.journal)
  end

let health t =
  let now = Stopclock.now () in
  List.map
    (fun w ->
      {
        w_shard = w.info.Shard.name;
        w_state =
          (match w.phase with
          | P_starting _ -> Starting
          | P_ready -> Ready
          | P_busy -> Busy
          | P_stopped _ -> Stopped
          | P_escalated -> Escalated);
        w_pid = Option.bind w.proc (fun p -> p.p_pid);
        w_restarts = w.restarts;
        w_total_restarts = w.total_restarts;
        w_breaker = Breaker.state w.breaker;
        w_beat_age_s = (if w.last_beat = 0.0 then None else Some (now -. w.last_beat));
      })
    t.workers

(* ---- query: the scatter core over worker round trips ---- *)

type dispatch = {
  d_worker : worker;
  d_sent_at : float;
  d_kill_at : float option;  (* deadline slice + grace; None = no deadline *)
  mutable d_outcome : Shard.outcome option;
}

(* Why the core may not dispatch to this worker right now. *)
let unavailable w () =
  match w.phase with
  | P_ready -> None
  | P_starting _ -> Some "worker not ready (starting)"
  | P_stopped _ -> Some "worker restarting (backing off)"
  | P_escalated -> Some "circuit open (restarts exhausted)"
  | P_busy -> Some "worker unavailable"

(* Wait until every dispatch has an outcome: [accept] turns an answer
   frame into one; a death or a blown deadline slice loses the shard
   and leaves a tagged, child-less [supervisor.worker] span, so the
   merged trace shows the partial tree instead of omitting the shard. *)
let gather t ~accept dispatches =
  let pending () = List.filter (fun d -> Option.is_none d.d_outcome) dispatches in
  let lose d reason =
    Obs.Span.emit ~name:"supervisor.worker"
      ~attrs:[ ("worker", d.d_worker.info.Shard.name); ("lost", reason) ]
      ~start_s:d.d_sent_at
      ~seconds:(Stopclock.now () -. d.d_sent_at)
      ();
    d.d_outcome <- Some (Shard.Lost reason)
  in
  let rec loop () =
    let now = Stopclock.now () in
    (* Kill workers that blew their deadline slice. *)
    List.iter
      (fun d ->
        match d.d_kill_at with
        | Some at when now >= at ->
            Metrics.incr m_kills;
            lose d "deadline exceeded (worker killed)";
            on_death t d.d_worker "killed for blowing its deadline slice"
        | _ -> ())
      (pending ());
    match pending () with
    | [] -> ()
    | ps ->
        let timeout =
          List.fold_left
            (fun acc d ->
              match d.d_kill_at with
              | Some at -> Float.min acc (Float.max 0.0 (at -. now))
              | None -> acc)
            0.1 ps
        in
        let ready_fds =
          readable
            (List.filter_map
               (fun d -> Option.map (fun p -> p.p_fd) d.d_worker.proc)
               ps)
            timeout
        in
        List.iter
          (fun d ->
            let w = d.d_worker in
            match w.proc with
            | Some p when List.mem p.p_fd ready_fds ->
                let handle = function
                  | Wire.Answer a -> d.d_outcome <- Some (accept d a)
                  | Wire.Pong seq -> idle_handle w (Wire.Pong seq)
                  | Wire.Hello _ | Wire.Client_answer _ | Wire.Shed _ | Wire.Drain
                    ->
                      ()
                in
                (* pump runs on_death; the shard is lost unless its
                   answer made it out before the stream died. *)
                if (not (pump t w ~handle)) && Option.is_none d.d_outcome then
                  lose d "worker died mid-query"
            | Some _ -> () (* no data this round; keep waiting *)
            | None -> lose d "worker died mid-query")
          ps;
        loop ()
  in
  loop ()

let query t ?(k = 10) ?method_ ?(strict = false) ?deadline_ms ?page_budget ?fanout
    nexi =
  let trace = Obs.Span.enabled () in
  t.qseq <- t.qseq + 1;
  let trace_id =
    Printf.sprintf "%s-%d" (Obs.Journal.digest_of nexi) t.qseq
  in
  let accept d (a : Wire.answer) =
    let w = d.d_worker in
    let name = w.info.Shard.name in
    w.last_beat <- Stopclock.now ();
    w.phase <- P_ready;
    w.restarts <- 0;
    (* Harvest the worker's telemetry: fold its counter delta into
       this registry (both the bare name — the merged fleet total —
       and a per-shard [worker.<shard>.*] view), so the scatter's
       journal record counts the fleet's pages and heap operations. *)
    Metrics.absorb_counters ~prefix:("worker." ^ name ^ ".") a.Wire.a_counters;
    (* Graft the worker's span tree under a [supervisor.worker] span
       spanning the full round trip; the pid attribute re-homes the
       subtree onto the worker's own track in a Chrome trace. *)
    Obs.Span.emit ~name:"supervisor.worker"
      ~attrs:
        [
          ("worker", name);
          (* "worker_pid", not "pid": the round trip is coordinator-
             observed time and must stay on the coordinator's trace
             track; only the grafted children (stamped "pid" by the
             worker itself) re-home to the worker's track. *)
          ( "worker_pid",
            match w.proc with
            | Some { p_pid = Some pid; _ } -> string_of_int pid
            | Some { p_pid = None; _ } -> "remote"
            | None -> "-" );
        ]
      ~start_s:d.d_sent_at
      ~seconds:(Stopclock.now () -. d.d_sent_at)
      ~children:a.Wire.a_spans ();
    match a.Wire.a_reply with
    | Ok reply -> Shard.Reply reply
    | Error reason -> Shard.Failed reason
  in
  let dispatch _ast (slice : Shard.slice) shards =
    let dispatches =
      List.map
        (fun (info : Shard.shard_info) ->
          let w = find_worker t info.Shard.name in
          let fault = w.pending_fault in
          w.pending_fault <- None;
          let q =
            Wire.Query
              {
                Wire.q_nexi = nexi;
                q_k = k;
                q_method = method_;
                q_strict = strict;
                q_floor = slice.Shard.floor;
                q_deadline_ms = slice.Shard.deadline_ms;
                q_page_budget = slice.Shard.page_budget;
                q_fault = fault;
                q_trace = trace;
                q_trace_id = (if trace then Some trace_id else None);
              }
          in
          let now = Stopclock.now () in
          let d =
            {
              d_worker = w;
              d_sent_at = now;
              d_kill_at =
                Option.map
                  (fun ms -> now +. ((ms +. t.config.deadline_grace_ms) /. 1000.0))
                  slice.Shard.deadline_ms;
              d_outcome = None;
            }
          in
          if send t w q then w.phase <- P_busy
          else d.d_outcome <- Some (Shard.Lost "worker died at dispatch");
          d)
        shards
    in
    gather t ~accept dispatches;
    List.map (fun d -> Option.get d.d_outcome) dispatches
  in
  (* Give workers still handshaking a chance to come up before we
     declare them unavailable — bounded by, and charged to, the query's
     own deadline. *)
  let started = Stopclock.now () in
  if List.exists (fun w -> match w.phase with P_starting _ -> true | _ -> false)
       t.workers
  then
    ignore
      (await_healthy
         ~timeout_s:
           (match deadline_ms with
           | Some d -> Float.min (d /. 1000.0) t.config.heartbeat_timeout_s
           | None -> t.config.heartbeat_timeout_s)
         t);
  let waited_ms = (Stopclock.now () -. started) *. 1000.0 in
  Shard.scatter ~k
    ~wave:(match fanout with Some f when f > 0 -> f | _ -> max 1 (List.length t.workers))
    ?deadline_ms:(Option.map (fun d -> d -. waited_ms) deadline_ms)
    ?page_budget ~span:"supervisor.query"
    ~span_attrs:
      [
        ("k", string_of_int k);
        ("workers", string_of_int (List.length t.workers));
        ("trace_id", trace_id);
      ]
    ~journal:(fun () -> Lazy.force t.journal)
    ~dispatch
    (List.map
       (fun w -> { Shard.shard = w.info; breaker = w.breaker; unavailable = unavailable w })
       t.workers)
    nexi

(* ---- the worker process ---- *)

(* How long a half-sent frame may sit on a worker's request stream
   before the worker declares the peer broken (see
   [Framing.recv_deadline]). Generous versus the heartbeat interval so
   it only ever fires on a genuinely torn or malicious stream. *)
let frame_read_timeout_s = 10.0

(* One-shot fault injection: armed by the query message or, for whole
   processes under CLI/CI gates, by the environment. *)
let make_fault_point ~armed ~cleanup point =
  match !armed with
  | Some spec -> (
      match String.index_opt spec ':' with
      | Some i when String.sub spec (i + 1) (String.length spec - i - 1) = point
        -> (
          armed := None;
          match String.sub spec 0 i with
          | "kill" -> Unix.kill (Unix.getpid ()) Sys.sigkill
          | "exit" ->
              cleanup ();
              exit 3
          | "stop" -> Unix.kill (Unix.getpid ()) Sys.sigstop
          | "wedge" -> ignore (Unix.select [] [] [] 3600.0)
          | _ -> ())
      | _ -> ())
  | None -> ()

let env_fault () =
  match Sys.getenv_opt "TREX_WORKER_FAULT" with
  | Some s when s <> "" -> Some s
  | _ -> None

(* One coordinator conversation over (rx, tx): Hello, then answer
   requests until the peer hangs up. Returns whether the conversation
   ended cleanly (a torn or corrupt stream is reported on stderr);
   [Shutdown] and an exploding evaluation exit the process in
   place (containment is the point). Shared by the socketpair worker
   (one conversation, then exit) and the TCP listen worker (one
   conversation per accepted connection). *)
let serve_worker_conn ~shard ~env ~engine ~armed ~fault_point ~cleanup rx tx =
  let send resp = Framing.write_all tx (Framing.frame (Wire.encode_response resp)) in
  let docs = (Index.stats (Trex.index engine)).Index.doc_count in
  send
    (Wire.Hello
       { h_shard = shard; h_pid = Unix.getpid (); h_docs = docs;
         h_wire = Wire.version });
  let evaluate (q : Wire.query) =
    Trex.evaluate engine ~k:q.Wire.q_k ~strict:q.Wire.q_strict
      ?method_:q.Wire.q_method ~floor:q.Wire.q_floor
      ?deadline_ms:q.Wire.q_deadline_ms ?page_budget:q.Wire.q_page_budget
      (Trex.parse engine q.Wire.q_nexi)
  in
  let decoder = Framing.Decoder.create () in
  let rec loop () =
    (* Deadline-bounded wait for the next request/heartbeat frame: the
       deadline is anchored at the first byte of an incomplete frame,
       so a coordinator (or, in listen mode, any peer) that tears or
       dribbles a frame cannot wedge this worker forever. *)
    match
      Framing.recv_deadline ~frame_timeout_s:frame_read_timeout_s rx decoder
    with
    | Framing.Eof | Framing.Idle_timeout ->
        (* Coordinator went away: this conversation is over. *)
        true
    | Framing.Frame_timeout ->
        Printf.eprintf "shard-worker %s: torn frame (read deadline)\n%!" shard;
        false
    | Framing.Frame payload ->
        (match Wire.decode_request payload with
        | Wire.Ping seq -> (
            (* "stale-pong:ping" simulates a pre-restart incarnation's
               Pong surviving into the new conversation: the reply
               carries a seq the coordinator never sent to {e this}
               incarnation, and must not count as a heartbeat. *)
            match !armed with
            | Some "stale-pong:ping" ->
                armed := None;
                send (Wire.Pong (seq - 1))
            | _ -> send (Wire.Pong seq))
        | Wire.Shutdown ->
            Env.close env;
            cleanup ();
            exit 0
        | Wire.Client_query _ ->
            (* Clients talk to the serve front door, not to workers. *)
            raise (Wire.Protocol_error "client_query sent to a shard worker")
        | Wire.Query q ->
            (match q.Wire.q_fault with Some f -> armed := Some f | None -> ());
            fault_point "mid-decode";
            (* Telemetry harvest: snapshot the registry, optionally
               trace, evaluate, then ship span tree + counter delta in
               the answer. Workers never journal: the coordinator's
               scatter writes the query's one record. *)
            let before = Metrics.counters () in
            if q.Wire.q_trace then begin
              Obs.Span.reset ();
              Obs.Span.set_enabled true
            end;
            let root_attrs =
              ("shard", shard)
              :: ("pid", string_of_int (Unix.getpid ()))
              ::
              (match q.Wire.q_trace_id with
              | Some id -> [ ("trace_id", id) ]
              | None -> [])
            in
            let reply =
              match
                Obs.Span.with_ ~name:("shard.query." ^ shard)
                  ~attrs:root_attrs
                  (fun () -> evaluate q)
              with
              | o -> Ok (Shard.reply_of o)
              | exception
                  ((Trex_topk.Rpl.Cursor.Missing_list _ | Trex_topk.Ta.Truncated_rpl)
                   as e) ->
                  (* A forced method over lists this shard lacks fails
                     the query, not the worker: reply with the failure. *)
                  Error (Printexc.to_string e)
              | exception e ->
                  (* Containment is the point: any other exploding
                     evaluation kills this worker, not the
                     coordinator. *)
                  Printf.eprintf "shard-worker %s: query failed: %s\n%!" shard
                    (Printexc.to_string e);
                  Env.close env;
                  cleanup ();
                  exit 2
            in
            let spans = if q.Wire.q_trace then Obs.Span.roots () else [] in
            if q.Wire.q_trace then begin
              Obs.Span.set_enabled false;
              Obs.Span.reset ()
            end;
            let counters = Metrics.counters_delta before (Metrics.counters ()) in
            fault_point "pre-reply";
            send (Wire.Answer { Wire.a_reply = reply; a_spans = spans; a_counters = counters });
            fault_point "post-reply");
        loop ()
  in
  try loop ()
  with Framing.Corrupt_frame e | Wire.Protocol_error e ->
    Printf.eprintf "shard-worker %s: protocol error: %s\n%!" shard e;
    false

(* The in-process attach ([Shard.attach_shard]): a SIGKILLed predecessor
   is a crash like any other, which the environment's replay settles at
   open, and the shard scores with the statistics stored in it. *)
let worker_attach ~dir ~shard ~cleanup =
  match Shard.attach_shard (Filename.concat dir shard) with
  | pair -> pair
  | exception e ->
      Printf.eprintf "shard-worker %s: attach failed: %s\n%!" shard
        (Printexc.to_string e);
      cleanup ();
      exit 1

let worker_main ~dir ~shard () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Private copies of the protocol fds; stdout then aliases stderr so
     a stray [print_string] anywhere below cannot tear a frame. *)
  let rx = Unix.dup Unix.stdin and tx = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let sdir = Filename.concat dir shard in
  let pid_path = Filename.concat sdir "worker.pid" in
  (try
     let oc = open_out pid_path in
     output_string oc (string_of_int (Unix.getpid ()) ^ "\n");
     close_out oc
   with Sys_error _ -> ());
  let cleanup () = try Sys.remove pid_path with Sys_error _ -> () in
  let armed = ref (env_fault ()) in
  let fault_point = make_fault_point ~armed ~cleanup in
  let env, engine = worker_attach ~dir ~shard ~cleanup in
  let clean =
    serve_worker_conn ~shard ~env ~engine ~armed ~fault_point ~cleanup rx tx
  in
  Env.close env;
  cleanup ();
  exit (if clean then 0 else 2)

(* A remote worker: bind, announce the bound address on stderr, then
   serve one coordinator conversation per accepted connection, forever.
   Its lifetime is decoupled from any coordinator — a coordinator
   hanging up (or being killed) just returns this process to accept;
   protocol corruption costs the connection, not the process. *)
let worker_listen ~dir ~shard ~addr () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  (match Unix.bind lfd (sockaddr_of_string addr) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "shard-worker %s: cannot bind %s: %s\n%!" shard addr
        (Unix.error_message e);
      exit 1);
  Unix.listen lfd 8;
  Unix.setsockopt lfd Unix.TCP_NODELAY true;
  (match Unix.getsockname lfd with
  | Unix.ADDR_INET (ip, port) ->
      (* Parseable by whoever spawned us — how tests learn a port 0. *)
      Printf.eprintf "LISTENING %s:%d\n%!" (Unix.string_of_inet_addr ip) port
  | _ -> ());
  let cleanup () = () in
  let armed = ref (env_fault ()) in
  let fault_point = make_fault_point ~armed ~cleanup in
  let env, engine = worker_attach ~dir ~shard ~cleanup in
  let rec accept_loop () =
    match Unix.accept lfd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | conn, _peer ->
        Unix.setsockopt conn Unix.TCP_NODELAY true;
        (match
           serve_worker_conn ~shard ~env ~engine ~armed ~fault_point ~cleanup
             conn conn
         with
        | _clean -> ()
        | exception Unix.Unix_error _ ->
            (* A send into a vanished coordinator (EPIPE) ends the
               conversation, not the worker. *)
            ());
        (try Unix.close conn with Unix.Unix_error _ -> ());
        accept_loop ()
  in
  accept_loop ()
