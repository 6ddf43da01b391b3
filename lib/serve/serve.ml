(* The overload-safe network front door. See serve.mli for the
   contract; the shape of the implementation:

   One process, one select loop. The loop owns the listen socket, a
   table of client connections (each with its own frame decoder and
   read-deadline anchors), and a bounded FIFO of admitted requests.
   Requests are evaluated synchronously between select rounds — the
   engine is single-threaded, so "capacity" is exactly one evaluation
   at a time and the queue is the only elasticity there is. Everything
   else is about refusing work honestly: admission sheds before
   queueing, the sweep disconnects peers that stall reads or writes,
   and SIGTERM turns the loop into a drain that finishes or sheds what
   was already admitted and nothing else. *)

module Framing = Trex_util.Framing
module Stopclock = Trex_util.Stopclock
module Metrics = Trex_obs.Metrics
module Journal = Trex_obs.Journal
module Breaker = Trex_resilience.Breaker
module Wire = Trex_shard.Wire
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Strategy = Trex_topk.Strategy

type policy = {
  queue_limit : int;
  default_deadline_ms : float;
  max_deadline_ms : float;
  max_page_budget : int option;
  max_k : int;
  frame_timeout_s : float;
  idle_timeout_s : float;
  write_timeout_s : float;
  breaker_strikes : int;
  breaker_cooldown_s : float;
  drain_budget_s : float;
}

let default_policy =
  {
    queue_limit = 32;
    default_deadline_ms = 2_000.0;
    max_deadline_ms = 30_000.0;
    max_page_budget = Some 500_000;
    max_k = 1000;
    frame_timeout_s = 10.0;
    idle_timeout_s = 300.0;
    write_timeout_s = 10.0;
    breaker_strikes = 3;
    breaker_cooldown_s = 30.0;
    drain_budget_s = 5.0;
  }

(* ---- counters ---- *)

let c_accepted = Metrics.counter "serve.accepted"
let c_refused = Metrics.counter "serve.refused"
let c_requests = Metrics.counter "serve.requests"
let c_answered = Metrics.counter "serve.answered"
let c_shed = Metrics.counter "serve.shed"
let c_drained = Metrics.counter "serve.drained"
let c_strikes = Metrics.counter "serve.strikes"
let c_disconnects = Metrics.counter "serve.disconnects"
let c_read_timeouts = Metrics.counter "serve.read_timeouts"
let c_write_timeouts = Metrics.counter "serve.write_timeouts"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let h_wait_ms = Metrics.histogram "serve.wait_ms"
let h_service_ms = Metrics.histogram "serve.service_ms"

(* ---- sockets ---- *)

(* Every frame is one complete request or reply, so Nagle's algorithm
   only ever delays it behind the peer's ACK: pipelined connections lock
   into one exchange per round trip. *)
let no_delay fd = Unix.setsockopt fd Unix.TCP_NODELAY true

(* ---- bounded writes ----

   The server never blocks forever on a peer that stops reading: every
   frame is written under a deadline, and a stall disconnects the
   peer. [Disconnect] is connection-fatal, request-transparent. *)

exception Disconnect of string

let write_with_deadline fd buf ~timeout_s =
  let len = Bytes.length buf in
  let deadline = Stopclock.now () +. timeout_s in
  let rec go pos =
    if pos < len then begin
      let remaining = deadline -. Stopclock.now () in
      if remaining <= 0.0 then raise (Disconnect "write timeout");
      match Unix.select [] [ fd ] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | _, [], _ -> go pos
      | _, _ :: _, _ -> (
          match Unix.write fd buf pos (len - pos) with
          | n -> go (pos + n)
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go pos
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
              raise (Disconnect "peer gone"))
    end
  in
  go 0

(* ---- connections ---- *)

type conn = {
  c_fd : Unix.file_descr;
  c_peer : string;  (* IP only — the breaker key *)
  c_dec : Framing.Decoder.t;
  mutable c_last_activity : float;
  mutable c_frame_start : float option;
      (* monotonic time the current incomplete frame started — the
         slowloris anchor, mirroring Framing.recv_deadline *)
  mutable c_strikes : int;
  mutable c_open : bool;
}

type pending = {
  p_conn : conn;
  p_query : Wire.client_query;
  p_enq : float;
  p_deadline : float;  (* absolute, Stopclock *)
  p_page_budget : int option;
  p_k : int;
}

let clamp_page_budget policy requested =
  match (requested, policy.max_page_budget) with
  | Some r, Some m -> Some (min r m)
  | Some r, None -> Some r
  | None, cap -> cap

(* Every answer the daemon sends, from the scatter's result whatever
   the backend. Fallback tags ride along without degrading: the
   answers they come with are complete. *)
let client_answer (r : Shard.result) ~elapsed_s =
  {
    Wire.ca_answers = r.Shard.answers;
    ca_k = r.Shard.k;
    ca_degraded = r.Shard.degraded;
    ca_tags =
      r.Shard.degraded_shards
      @ List.map
          (fun (f : Strategy.failover) -> (Strategy.method_to_string f.failed, f.error))
          r.Shard.fallbacks;
    ca_method = Option.map Strategy.method_to_string (Shard.method_used r);
    ca_elapsed_s = elapsed_s;
  }

(* One journal frame per refused-or-abandoned request: the strategy
   field carries the disposition ("shed:<code>" or "drained"), the
   label the NEXI text, wall_ms the time the request spent with us. *)
let journal_refusal journal ~nexi ~k ~disposition ~queued_ms =
  ignore
    (Journal.append journal
       {
         Journal.qid = 0;
         ts = Unix.gettimeofday ();
         digest = Journal.digest_of nexi;
         label = nexi;
         strategy = disposition;
         k;
         wall_ms = queued_ms;
         pages_read = 0;
         cache_hit_ratio = 0.0;
         heap_ops = 0;
         degraded = true;
         fallbacks = 0;
         retried = false;
         spans = [];
       })

let run ?(policy = default_policy) ?(remote = []) ?listen_fd ?on_ready ~dir
    ~addr () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain_requested = ref false in
  let on_term = Sys.Signal_handle (fun _ -> drain_requested := true) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  (* The query path, picked once: a coordinator directory scatters
     over supervised workers, anything else is a plain index
     environment served as a one-shard plan. *)
  let query, tick, docs, close_backend =
    if Shard.is_coordinator dir then begin
      let s = Supervisor.create ~remote dir in
      ignore (Supervisor.await_healthy s);
      let docs =
        List.fold_left
          (fun acc (i : Shard.shard_info) -> acc + i.docs)
          0 (Supervisor.shards s)
      in
      ( Supervisor.query s ?fanout:None,
        (fun () -> Supervisor.tick s),
        docs,
        fun () -> Supervisor.close s )
    end
    else begin
      let env = Trex.Env.on_disk dir in
      let engine = Trex.attach ~env () in
      let stats = Trex.Index.stats (Trex.index engine) in
      ( Shard.query_env engine,
        ignore,
        stats.Trex.Index.doc_count,
        fun () -> Trex.Env.close env )
    end
  in
  let listen =
    match listen_fd with
    | Some fd -> fd
    | None ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Supervisor.sockaddr_of_string addr);
        Unix.listen fd 64;
        fd
  in
  (* Accepted sockets inherit it from the listener; they set it again
     below all the same, as not every platform inherits it. *)
  no_delay listen;
  let bound =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | _ -> addr
  in
  let journal = Journal.open_file (Filename.concat dir "serve_journal.qj") in
  (match on_ready with Some f -> f bound | None -> ());
  (* ---- mutable serving state ---- *)
  let conns = ref [] in
  let queue : pending Queue.t = Queue.create () in
  let draining = ref false in
  let drain_deadline = ref infinity in
  let ewma_service_s = ref 0.02 in
  let peer_breakers : (string, Breaker.t) Hashtbl.t = Hashtbl.create 8 in
  let peer_breaker peer =
    match Hashtbl.find_opt peer_breakers peer with
    | Some b -> b
    | None ->
        let b =
          Breaker.create ~failure_threshold:policy.breaker_strikes
            ~cooldown_s:policy.breaker_cooldown_s
            ("serve.peer." ^ peer)
        in
        Hashtbl.add peer_breakers peer b;
        b
  in
  let disconnect c =
    if c.c_open then begin
      c.c_open <- false;
      Metrics.incr c_disconnects;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ()
    end
  in
  (* Send one response under the write deadline; a stalled or vanished
     peer is disconnected (and a stall strikes its breaker — not
     reading your answers is abuse too). Returns whether it landed. *)
  let send_resp c resp =
    if not c.c_open then false
    else
      try
        write_with_deadline c.c_fd
          (Framing.frame (Wire.encode_response resp))
          ~timeout_s:policy.write_timeout_s;
        true
      with Disconnect reason ->
        if reason = "write timeout" then begin
          Metrics.incr c_write_timeouts;
          Breaker.record_failure (peer_breaker c.c_peer) ~reason:"write stall"
        end;
        disconnect c;
        false
  in
  let shed c ~nexi ~k ~code ~reason ~retry_after_ms ~queued_ms =
    Metrics.incr c_shed;
    journal_refusal journal ~nexi ~k ~disposition:("shed:" ^ code) ~queued_ms;
    ignore (send_resp c (Wire.Shed { retry_after_ms; reason }))
  in
  let strike c reason =
    Metrics.incr c_strikes;
    c.c_strikes <- c.c_strikes + 1;
    Breaker.record_failure (peer_breaker c.c_peer) ~reason;
    if c.c_strikes >= policy.breaker_strikes then disconnect c
  in
  (* ---- admission: shed before queue ---- *)
  let admit c (cq : Wire.client_query) =
    Metrics.incr c_requests;
    let now = Stopclock.now () in
    let nexi = cq.Wire.c_nexi in
    if cq.Wire.c_k <= 0 || nexi = "" then
      shed c ~nexi ~k:cq.Wire.c_k ~code:"invalid"
        ~reason:"invalid request: k must be positive and nexi non-empty"
        ~retry_after_ms:0.0 ~queued_ms:0.0
    else begin
      let deadline_ms =
        Float.min
          (Option.value cq.Wire.c_deadline_ms
             ~default:policy.default_deadline_ms)
          policy.max_deadline_ms
      in
      let est_wait_ms =
        float_of_int (Queue.length queue) *. !ewma_service_s *. 1000.0
      in
      if !draining then
        shed c ~nexi ~k:cq.Wire.c_k ~code:"draining"
          ~reason:"server is draining"
          ~retry_after_ms:(policy.drain_budget_s *. 1000.0) ~queued_ms:0.0
      else if Queue.length queue >= policy.queue_limit then
        shed c ~nexi ~k:cq.Wire.c_k ~code:"queue-full"
          ~reason:
            (Printf.sprintf "queue full (%d requests ahead)"
               (Queue.length queue))
          ~retry_after_ms:(Float.max 1.0 est_wait_ms) ~queued_ms:0.0
      else if est_wait_ms > deadline_ms then
        shed c ~nexi ~k:cq.Wire.c_k ~code:"backlog"
          ~reason:
            (Printf.sprintf
               "estimated wait %.0f ms exceeds the %.0f ms deadline"
               est_wait_ms deadline_ms)
          ~retry_after_ms:est_wait_ms ~queued_ms:0.0
      else
        Queue.add
          {
            p_conn = c;
            p_query = cq;
            p_enq = now;
            p_deadline = now +. (deadline_ms /. 1000.0);
            p_page_budget = clamp_page_budget policy cq.Wire.c_page_budget;
            p_k = min cq.Wire.c_k policy.max_k;
          }
          queue
    end
  in
  let handle_request c payload =
    match Wire.decode_request payload with
    | Wire.Ping seq -> ignore (send_resp c (Wire.Pong seq))
    | Wire.Client_query cq -> admit c cq
    | Wire.Query _ | Wire.Shutdown ->
        strike c "worker protocol on the client port"
    | exception Wire.Protocol_error msg -> strike c ("undecodable request: " ^ msg)
  in
  let chunk = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        disconnect c
    | 0 -> disconnect c
    | n -> (
        Framing.Decoder.feed c.c_dec chunk 0 n;
        let rec frames () =
          if c.c_open then
            match Framing.Decoder.next c.c_dec with
            | Some payload ->
                c.c_last_activity <- Stopclock.now ();
                handle_request c payload;
                frames ()
            | None ->
                (* re-anchor the read deadlines exactly as
                   recv_deadline would: a part-read frame pins the
                   frame anchor at its first byte; an empty buffer
                   resets to the idle clock *)
                if Framing.Decoder.buffered c.c_dec > 0 then begin
                  if c.c_frame_start = None then
                    c.c_frame_start <- Some (Stopclock.now ())
                end
                else c.c_frame_start <- None
        in
        match frames () with
        | () -> ()
        | exception Framing.Corrupt_frame reason ->
            Breaker.record_failure (peer_breaker c.c_peer)
              ~reason:("corrupt frame: " ^ reason);
            disconnect c)
  in
  let accept_one () =
    match Unix.accept listen with
    | exception
        Unix.Unix_error
          ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
            _,
            _ ) ->
        ()
    | fd, sa ->
        let peer =
          match sa with
          | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
          | _ -> "local"
        in
        if not (Breaker.allow (peer_breaker peer)) then begin
          Metrics.incr c_refused;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.set_nonblock fd;
          no_delay fd;
          Metrics.incr c_accepted;
          let c =
            {
              c_fd = fd;
              c_peer = peer;
              c_dec = Framing.Decoder.create ();
              c_last_activity = Stopclock.now ();
              c_frame_start = None;
              c_strikes = 0;
              c_open = true;
            }
          in
          if
            send_resp c
              (Wire.Hello
                 {
                   h_shard = "serve";
                   h_pid = Unix.getpid ();
                   h_docs = docs;
                   h_wire = Wire.version;
                 })
          then conns := c :: !conns
        end
  in
  let sweep_timeouts () =
    let now = Stopclock.now () in
    List.iter
      (fun c ->
        if c.c_open then
          match c.c_frame_start with
          | Some t0 when now -. t0 > policy.frame_timeout_s ->
              Metrics.incr c_read_timeouts;
              Breaker.record_failure (peer_breaker c.c_peer)
                ~reason:"slowloris frame";
              disconnect c
          | _ ->
              if
                c.c_frame_start = None
                && now -. c.c_last_activity > policy.idle_timeout_s
              then disconnect c)
      !conns
  in
  (* ---- execution: one admitted request between select rounds ---- *)
  let execute_one () =
    match Queue.take_opt queue with
    | None -> ()
    | Some p when not p.p_conn.c_open -> ()
    | Some p -> (
        let now = Stopclock.now () in
        let queued_ms = (now -. p.p_enq) *. 1000.0 in
        Metrics.observe h_wait_ms queued_ms;
        let nexi = p.p_query.Wire.c_nexi in
        if now >= p.p_deadline then
          (* "never queued past its deadline": admission should make
             this rare, but a drain or an EWMA under-estimate can park
             a request past its budget — shed it rather than run a
             guaranteed-degraded evaluation *)
          shed p.p_conn ~nexi ~k:p.p_k ~code:"deadline"
            ~reason:"deadline expired while queued" ~retry_after_ms:0.0
            ~queued_ms
        else begin
          let cq = p.p_query in
          match
            query ~k:p.p_k ?method_:cq.Wire.c_method ~strict:cq.Wire.c_strict
              ~deadline_ms:((p.p_deadline -. now) *. 1000.0)
              ?page_budget:p.p_page_budget nexi
          with
          | r ->
              let dt = Stopclock.now () -. now in
              let ca = client_answer r ~elapsed_s:dt in
              ewma_service_s := (0.8 *. !ewma_service_s) +. (0.2 *. dt);
              Metrics.observe h_service_ms (dt *. 1000.0);
              if send_resp p.p_conn (Wire.Client_answer ca) then begin
                Metrics.incr c_answered;
                Breaker.record_success (peer_breaker p.p_conn.c_peer)
              end
          | exception Trex_nexi.Parser.Syntax_error { message; pos } ->
              shed p.p_conn ~nexi ~k:p.p_k ~code:"invalid"
                ~reason:
                  (Printf.sprintf "syntax error at byte %d: %s" pos message)
                ~retry_after_ms:0.0 ~queued_ms
          | exception e ->
              shed p.p_conn ~nexi ~k:p.p_k ~code:"error"
                ~reason:("evaluation failed: " ^ Printexc.to_string e)
                ~retry_after_ms:0.0 ~queued_ms
        end)
  in
  let maybe_start_drain () =
    if !drain_requested && not !draining then begin
      draining := true;
      drain_deadline := Stopclock.now () +. policy.drain_budget_s;
      (try Unix.close listen with Unix.Unix_error _ -> ());
      List.iter (fun c -> ignore (send_resp c Wire.Drain)) !conns
    end
  in
  (* One last non-blocking read pass at drain time: a query already on
     the wire when the SIGTERM landed is answered with a typed Shed,
     not destroyed by the RST a close-with-unread-data would send. *)
  let drain_read_and_shed c =
    let rec slurp () =
      match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error _ -> ()
      | 0 -> ()
      | n ->
          Framing.Decoder.feed c.c_dec chunk 0 n;
          slurp ()
    in
    let rec frames () =
      if c.c_open then
        match Framing.Decoder.next c.c_dec with
        | Some payload ->
            (match Wire.decode_request payload with
            | Wire.Ping seq -> ignore (send_resp c (Wire.Pong seq))
            | Wire.Client_query cq ->
                Metrics.incr c_requests;
                shed c ~nexi:cq.Wire.c_nexi ~k:cq.Wire.c_k ~code:"draining"
                  ~reason:"server is draining" ~retry_after_ms:0.0
                  ~queued_ms:0.0
            | Wire.Query _ | Wire.Shutdown -> ()
            | exception Wire.Protocol_error _ -> ());
            frames ()
        | None -> ()
        | exception Framing.Corrupt_frame _ -> disconnect c
    in
    if c.c_open then begin
      slurp ();
      frames ()
    end
  in
  let finish () =
    (* Shed whatever the drain budget didn't cover — a typed goodbye,
       never a dropped request. *)
    Queue.iter
      (fun p ->
        Metrics.incr c_drained;
        journal_refusal journal ~nexi:p.p_query.Wire.c_nexi ~k:p.p_k
          ~disposition:"drained"
          ~queued_ms:((Stopclock.now () -. p.p_enq) *. 1000.0);
        ignore
          (send_resp p.p_conn
             (Wire.Shed
                { retry_after_ms = 0.0; reason = "server is draining" })))
      queue;
    Queue.clear queue;
    List.iter drain_read_and_shed !conns;
    Journal.sync journal;
    Journal.close journal;
    List.iter disconnect !conns;
    close_backend ();
    0
  in
  let rec loop () =
    maybe_start_drain ();
    if
      !draining
      && (Queue.is_empty queue || Stopclock.now () >= !drain_deadline)
    then finish ()
    else begin
      conns := List.filter (fun c -> c.c_open) !conns;
      Metrics.set g_queue_depth (float_of_int (Queue.length queue));
      tick ();
      let timeout = if Queue.is_empty queue then 0.2 else 0.0 in
      let rd =
        (if !draining then [] else [ listen ])
        @ List.map (fun c -> c.c_fd) !conns
      in
      (match Unix.select rd [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen && not !draining then accept_one ()
              else
                match List.find_opt (fun c -> c.c_fd = fd) !conns with
                | Some c when c.c_open -> read_conn c
                | _ -> ())
            readable);
      sweep_timeouts ();
      execute_one ();
      loop ()
    end
  in
  loop ()

(* ---- client ---- *)

module Client = struct
  exception Unreachable of string

  type t = {
    fd : Unix.file_descr;
    dec : Framing.Decoder.t;
    mutable drained : bool;
  }

  type reply =
    | Answer of Wire.client_answer
    | Shed of { retry_after_ms : float; reason : string }
    | Draining

  let recv t ~timeout_s =
    match
      Framing.recv_deadline ~idle_timeout_s:timeout_s
        ~frame_timeout_s:timeout_s t.fd t.dec
    with
    | Framing.Frame p -> Some (Wire.decode_response p)
    | Framing.Eof -> None
    | Framing.Idle_timeout | Framing.Frame_timeout ->
        raise (Unreachable "reply deadline expired")
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        (* a reset after the server hung up reads the same as EOF *)
        None
    | exception Framing.Corrupt_frame reason ->
        raise (Unreachable ("corrupt frame: " ^ reason))
    | exception Wire.Protocol_error reason ->
        raise (Unreachable ("protocol error: " ^ reason))

  let connect ?(timeout_s = 5.0) addr =
    let sa =
      try Supervisor.sockaddr_of_string addr
      with Invalid_argument msg -> raise (Unreachable msg)
    in
    match Supervisor.connect_with_timeout sa ~timeout_s with
    | None ->
        raise
          (Unreachable
             (Printf.sprintf "connect to %s refused or timed out" addr))
    | Some fd -> (
        let t = { fd; dec = Framing.Decoder.create (); drained = false } in
        let fail e =
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
        in
        match recv t ~timeout_s with
        | Some (Wire.Hello _) -> t
        | Some _ -> fail (Unreachable "unexpected greeting")
        | None -> fail (Unreachable "server hung up during the handshake")
        | exception e -> fail e)

  let send t req =
    try Framing.append t.fd (Wire.encode_request req)
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise (Unreachable "server hung up")

  let collect_terminal ?(timeout_s = 30.0) t =
    let deadline = Stopclock.now () +. timeout_s in
    let rec wait () =
      let remaining = deadline -. Stopclock.now () in
      if remaining <= 0.0 then raise (Unreachable "reply deadline expired");
      match recv t ~timeout_s:remaining with
      | Some (Wire.Client_answer a) -> Answer a
      | Some (Wire.Shed { retry_after_ms; reason }) ->
          Shed { retry_after_ms; reason }
      | Some Wire.Drain ->
          (* the server is going away but may still answer or shed the
             in-flight request: keep waiting for its terminal frame *)
          t.drained <- true;
          wait ()
      | Some (Wire.Hello _ | Wire.Pong _ | Wire.Answer _) -> wait ()
      | None -> if t.drained then Draining else raise (Unreachable "server hung up")
    in
    wait ()

  let request ?timeout_s t cq =
    send t (Wire.Client_query cq);
    collect_terminal ?timeout_s t

  let ping ?(timeout_s = 5.0) t =
    match send t (Wire.Ping 0x7eaced) with
    | exception Unreachable _ -> false
    | () -> (
        let rec wait () =
          match recv t ~timeout_s with
          | Some (Wire.Pong seq) -> seq = 0x7eaced
          | Some _ -> wait ()
          | None -> false
        in
        try wait () with Unreachable _ -> false)

  let fd t = t.fd
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
