(* Front-door suite: the serve daemon's overload and drain contract.

   What must hold (DESIGN.md §6): every request a client manages to
   send terminates as exactly one of answer, tagged partial, or typed
   [Shed] — overload makes the server fast and honest, never silently
   slow, and never a torn frame; non-shed answers are rank-identical
   to evaluating the same query against the same environment directly;
   SIGTERM drains (finish-or-shed admitted work, exit 0); a remote
   shard worker SIGKILLed under a serving coordinator degrades the
   answer to a tagged sound partial through the front door; peers that
   dribble frames or speak the wrong protocol are disconnected, and
   repeat offenders are refused at accept by their per-IP breaker.

   The server is forked (not exec'd) around an inherited listen
   socket the parent bound to port 0 — no port races, no argv
   plumbing. Remote shard workers exec this binary, so it dispatches
   to [Supervisor.worker_main]/[worker_listen] like the supervisor
   suite does. *)

module Env = Trex_storage.Env
module Framing = Trex_util.Framing
module Metrics = Trex_obs.Metrics
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Wire = Trex_shard.Wire
module Serve = Trex_serve.Serve
module Strategy = Trex_topk.Strategy
module Answer = Trex_topk.Answer
module Types = Trex_invindex.Types

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let nexi = "//article//sec[about(., information retrieval)]"

(* One corpus, twice: on disk (what the daemon serves) and in memory
   (the baseline the daemon's answers must rank-match). *)
let build_env ~docs:doc_count ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count ~seed () in
  let docs = List.of_seq (coll.docs ()) in
  let baseline_env = Env.in_memory () in
  let engine = Trex.build ~env:baseline_env ~alias:coll.alias (List.to_seq docs) in
  let dir = temp_dir () in
  let storage = Env.on_disk dir in
  ignore (Trex.build ~env:storage ~alias:coll.alias (List.to_seq docs));
  Env.close storage;
  (dir, engine)

let build_coordinator ~docs:doc_count ~seed =
  let coll = Trex_corpus.Gen.ieee ~doc_count ~seed () in
  let docs = List.of_seq (coll.docs ()) in
  let baseline_env = Env.in_memory () in
  let engine = Trex.build ~env:baseline_env ~alias:coll.alias (List.to_seq docs) in
  let dir = temp_dir () in
  Shard.close (Shard.create ~dir ~shards:3 ~alias:coll.alias docs);
  (dir, engine)

let baseline engine ~k q =
  Answer.top_k (Trex.query engine ~k q).Trex.strategy.Strategy.answers k

let answers_testable =
  let entry_sig (e : Answer.entry) =
    (e.element.Types.docid, e.element.Types.endpos, e.element.Types.length)
  in
  let equal a b =
    List.compare_lengths a b = 0
    && List.for_all2
         (fun (x : Answer.entry) (y : Answer.entry) ->
           entry_sig x = entry_sig y
           && Float.abs (x.Answer.score -. y.Answer.score) <= 1e-9)
         a b
  in
  Alcotest.testable Answer.pp equal

(* ---- harness: fork the daemon around a pre-bound socket ---- *)

let bind_loopback () =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 64;
  match Unix.getsockname listen with
  | Unix.ADDR_INET (_, p) -> (listen, Printf.sprintf "127.0.0.1:%d" p)
  | _ -> assert false

let fork_daemon ?(policy = Serve.default_policy) ?(remote = []) listen dir =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try Serve.run ~policy ~remote ~listen_fd:listen ~dir ~addr:"-" ()
        with _ -> 9
      in
      Unix._exit code
  | pid -> pid

let fork_server ?policy ?remote dir =
  let listen, addr = bind_loopback () in
  let pid = fork_daemon ?policy ?remote listen dir in
  Unix.close listen;
  (pid, addr)

let stop_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let with_server ?policy ?remote dir f =
  let pid, addr = fork_server ?policy ?remote dir in
  Fun.protect ~finally:(fun () -> stop_server pid) (fun () -> f pid addr)

let client_query ?(k = 10) ?deadline_ms nexi =
  {
    Wire.c_nexi = nexi;
    c_k = k;
    c_method = None;
    c_strict = false;
    c_deadline_ms = deadline_ms;
    c_page_budget = None;
  }

let fd_count pid =
  Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid))

(* ---- identity: the front door adds transport, not answers ---- *)

let test_answer_identity () =
  let dir, engine = build_env ~docs:24 ~seed:7 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server dir @@ fun _pid addr ->
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  Alcotest.(check bool) "ping answers pong" true (Serve.Client.ping c);
  match Serve.Client.request c (client_query ~k:10 nexi) with
  | Serve.Client.Answer a ->
      Alcotest.(check bool) "untagged" false a.Wire.ca_degraded;
      check answers_testable "served answer = direct evaluation"
        (baseline engine ~k:10 nexi) a.Wire.ca_answers
  | Serve.Client.Shed { reason; _ } -> Alcotest.failf "shed an idle server: %s" reason
  | Serve.Client.Draining -> Alcotest.fail "server draining unprompted"

(* ---- Nagle off on both ends ----

   The parent keeps its copy of the listening socket, so it can read
   the option the daemon set on the shared socket; accepted sockets
   inherit it. *)
let test_no_delay () =
  let dir, _engine = build_env ~docs:8 ~seed:7 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let nodelay fd = Unix.getsockopt fd Unix.TCP_NODELAY in
  let listen, addr = bind_loopback () in
  Alcotest.(check bool) "a fresh listener has Nagle on" false (nodelay listen);
  let pid = fork_daemon listen dir in
  Fun.protect ~finally:(fun () ->
      stop_server pid;
      Unix.close listen)
  @@ fun () ->
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  Alcotest.(check bool) "client socket" true (nodelay (Serve.Client.fd c));
  Alcotest.(check bool) "daemon's listening socket" true (nodelay listen)

(* ---- overload soak: every request terminates, exactly once ----

   A 1-slot queue, several connections, every connection pipelining a
   burst of queries without waiting. The server must answer or shed
   each one — C*K terminal frames, no more, no fewer — the answered
   ones rank-identical to direct evaluation, and under this much
   offered load at least one request of each fate. Afterwards the
   daemon's fd table must be back to its pre-soak size: no socket
   leaks. *)
let test_overload_soak () =
  let dir, engine = build_env ~docs:24 ~seed:7 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy =
    { Serve.default_policy with queue_limit = 1; default_deadline_ms = 5_000.0 }
  in
  with_server ~policy dir @@ fun srv_pid addr ->
  let expected = baseline engine ~k:5 nexi in
  (* settle: one full connect/query/disconnect cycle — so the env's
     lazily-opened table files are all open — then measure the fd
     table *)
  (let c = Serve.Client.connect addr in
   Alcotest.(check bool) "warmup ping" true (Serve.Client.ping c);
   (match Serve.Client.request c (client_query ~k:5 nexi) with
   | Serve.Client.Answer _ -> ()
   | _ -> Alcotest.fail "warmup query did not answer");
   Serve.Client.close c);
  Unix.sleepf 0.2;
  let fds_before = fd_count srv_pid in
  let conns = 4 and burst = 6 in
  let clients =
    List.init conns (fun _ -> Serve.Client.connect addr)
  in
  let answered = ref 0 and shed = ref 0 in
  Fun.protect
    ~finally:(fun () -> List.iter Serve.Client.close clients)
    (fun () ->
      (* pipeline the whole burst on every connection first... *)
      List.iter
        (fun c ->
          for _ = 1 to burst do
            Serve.Client.send c (Wire.Client_query (client_query ~k:5 nexi))
          done)
        clients;
      (* ...then collect exactly [burst] terminal replies per
         connection; a missing or extra frame fails the test *)
      List.iter
        (fun c ->
          for _ = 1 to burst do
            match Serve.Client.collect_terminal ~timeout_s:30.0 c with
            | Serve.Client.Answer a ->
                incr answered;
                Alcotest.(check bool) "answer untagged" false a.Wire.ca_degraded;
                check answers_testable "soak answer rank-identical" expected
                  a.Wire.ca_answers
            | Serve.Client.Shed { retry_after_ms; _ } ->
                incr shed;
                Alcotest.(check bool)
                  "retry_after is non-negative" true (retry_after_ms >= 0.0)
            | Serve.Client.Draining -> Alcotest.fail "drain during soak"
          done)
        clients);
  Alcotest.(check int) "every request terminated exactly once" (conns * burst)
    (!answered + !shed);
  Alcotest.(check bool) "some answered" true (!answered > 0);
  Alcotest.(check bool)
    (Printf.sprintf "1-slot queue under %dx pipelined load sheds (answered=%d)"
       conns !answered)
    true (!shed > 0);
  (* no socket leaks: the daemon's fd table returns to its pre-soak
     size once the clients hang up *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    if fd_count srv_pid <= fds_before then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "fd leak: %d fds before soak, %d after" fds_before
        (fd_count srv_pid)
    else begin
      Unix.sleepf 0.05;
      settle ()
    end
  in
  settle ()

(* ---- graceful drain: SIGTERM mid-conversation ---- *)

let test_sigterm_drain () =
  let dir, engine = build_env ~docs:24 ~seed:7 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, addr = fork_server dir in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !reaped then stop_server pid)
    (fun () ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (* the query and the SIGTERM race: whatever the server decides,
         the client must see one clean terminal frame, never a tear *)
      Serve.Client.send c (Wire.Client_query (client_query ~k:5 nexi));
      Unix.kill pid Sys.sigterm;
      (match Serve.Client.collect_terminal ~timeout_s:30.0 c with
      | Serve.Client.Answer a ->
          check answers_testable "drained answer still rank-identical"
            (baseline engine ~k:5 nexi) a.Wire.ca_answers
      | Serve.Client.Shed _ | Serve.Client.Draining -> ());
      let _, status = Unix.waitpid [] pid in
      reaped := true;
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "drain exited %d, want 0" n
      | Unix.WSIGNALED s -> Alcotest.failf "server died on signal %d" s
      | Unix.WSTOPPED _ -> Alcotest.fail "server stopped");
      (* and the daemon is really gone: fresh connects are refused *)
      match Serve.Client.connect ~timeout_s:1.0 addr with
      | exception Serve.Client.Unreachable _ -> ()
      | c2 ->
          Serve.Client.close c2;
          Alcotest.fail "connected to a drained server")

(* ---- remote shard worker killed mid-service ---- *)

let spawn_listen_worker ~dir ~shard =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      Unix.dup2 w Unix.stderr;
      if w <> Unix.stderr then Unix.close w;
      let prog = Sys.executable_name in
      let argv =
        [| prog; "shard-worker"; "--dir"; dir; "--shard"; shard;
           "--listen"; "127.0.0.1:0" |]
      in
      (try Unix.execv prog argv with _ -> ());
      exit 127
  | pid ->
      Unix.close w;
      let buf = Buffer.create 64 in
      let chunk = Bytes.create 256 in
      let rec find () =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some i ->
            let line = String.sub s 0 i in
            Buffer.clear buf;
            Buffer.add_string buf
              (String.sub s (i + 1) (String.length s - i - 1));
            if String.length line > 10 && String.sub line 0 10 = "LISTENING "
            then String.sub line 10 (String.length line - 10)
            else find ()
        | None -> (
            match Unix.read r chunk 0 (Bytes.length chunk) with
            | 0 -> Alcotest.fail "listen worker died before announcing its port"
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                find ())
      in
      let addr = find () in
      (pid, r, addr)

let test_remote_worker_kill_through_front_door () =
  let dir, engine = build_coordinator ~docs:24 ~seed:11 in
  let infos = Shard.load_map dir in
  let rname = (List.hd infos).Shard.name in
  let wpid, wfd, waddr = spawn_listen_worker ~dir ~shard:rname in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill wpid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] wpid) with Unix.Unix_error _ -> ());
      (try Unix.close wfd with Unix.Unix_error _ -> ());
      rm_rf dir)
  @@ fun () ->
  with_server ~remote:[ (rname, waddr) ] dir @@ fun _pid addr ->
  let c = Serve.Client.connect ~timeout_s:15.0 addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* healthy: the remote-backed coordinator answers the full ranking *)
  (match Serve.Client.request ~timeout_s:30.0 c (client_query ~k:8 nexi) with
  | Serve.Client.Answer a ->
      Alcotest.(check bool) "healthy scatter untagged" false a.Wire.ca_degraded;
      check answers_testable "front-door scatter = direct evaluation"
        (baseline engine ~k:8 nexi) a.Wire.ca_answers
  | Serve.Client.Shed { reason; _ } -> Alcotest.failf "healthy query shed: %s" reason
  | Serve.Client.Draining -> Alcotest.fail "drain during healthy query");
  (* SIGKILL the remote worker, then query again: the answer must be
     a tagged sound partial naming the lost shard *)
  Unix.kill wpid Sys.sigkill;
  ignore (Unix.waitpid [] wpid);
  match Serve.Client.request ~timeout_s:30.0 c (client_query ~k:8 nexi) with
  | Serve.Client.Answer a ->
      Alcotest.(check bool) "kill degrades" true a.Wire.ca_degraded;
      Alcotest.(check bool)
        "tag names the dead shard" true
        (List.mem_assoc rname a.Wire.ca_tags);
      let lost =
        List.filter_map
          (fun (i : Shard.shard_info) ->
            if i.Shard.name = rname then Some (i.base, i.base + i.docs)
            else None)
          infos
      in
      let surviving =
        Answer.top_k
          (List.filter
             (fun (e : Answer.entry) ->
               not
                 (List.exists
                    (fun (lo, hi) ->
                      e.element.Types.docid >= lo && e.element.Types.docid < hi)
                    lost))
             (baseline engine ~k:1_000_000 nexi))
          8
      in
      check answers_testable "partial = surviving shards exactly" surviving
        a.Wire.ca_answers
  | Serve.Client.Shed { reason; _ } -> Alcotest.failf "degraded query shed: %s" reason
  | Serve.Client.Draining -> Alcotest.fail "drain during degraded query"

(* ---- a malformed query is the client's error, on either backend ----

   Refused with a typed [Shed] naming the syntax error — the sharded
   backend parses before scattering, so no worker ever sees the query
   and the fleet keeps answering. *)
let test_malformed_query_sheds () =
  let expect_invalid addr =
    let c = Serve.Client.connect ~timeout_s:15.0 addr in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match Serve.Client.request ~timeout_s:30.0 c (client_query "//article[") with
    | Serve.Client.Shed { reason; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "shed as a syntax error: %s" reason)
          true
          (String.length reason >= 12 && String.sub reason 0 12 = "syntax error")
    | Serve.Client.Answer _ -> Alcotest.fail "malformed query was answered"
    | Serve.Client.Draining -> Alcotest.fail "server draining unprompted"
  in
  let single, _ = build_env ~docs:8 ~seed:13 in
  Fun.protect ~finally:(fun () -> rm_rf single) (fun () ->
      with_server single @@ fun _pid addr -> expect_invalid addr);
  let sharded, engine = build_coordinator ~docs:12 ~seed:13 in
  Fun.protect ~finally:(fun () -> rm_rf sharded) @@ fun () ->
  with_server sharded @@ fun _pid addr ->
  expect_invalid addr;
  let c = Serve.Client.connect ~timeout_s:15.0 addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  match Serve.Client.request ~timeout_s:30.0 c (client_query ~k:5 nexi) with
  | Serve.Client.Answer a ->
      Alcotest.(check bool) "fleet untouched: untagged" false a.Wire.ca_degraded;
      check answers_testable "fleet untouched: full answer" (baseline engine ~k:5 nexi)
        a.Wire.ca_answers
  | Serve.Client.Shed { reason; _ } -> Alcotest.failf "follow-up shed: %s" reason
  | Serve.Client.Draining -> Alcotest.fail "drain during follow-up"

(* ---- abuse: slowloris and protocol violations ---- *)

let test_slowloris_disconnect () =
  let dir, _engine = build_env ~docs:8 ~seed:3 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy = { Serve.default_policy with frame_timeout_s = 0.2 } in
  with_server ~policy dir @@ fun _pid addr ->
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* half a frame, then silence: the server must cut us off around
     frame_timeout_s, not wait for the rest *)
  let frame =
    Framing.frame (Wire.encode_request (Wire.Client_query (client_query nexi)))
  in
  let half = Bytes.sub frame 0 (Bytes.length frame / 2) in
  Framing.write_all (Serve.Client.fd c) half;
  let t0 = Unix.gettimeofday () in
  (match Serve.Client.collect_terminal ~timeout_s:10.0 c with
  | exception Serve.Client.Unreachable _ -> ()
  | _ -> Alcotest.fail "server answered half a frame");
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "disconnected near the frame deadline (%.2fs)" dt)
    true
    (dt < 5.0)

let test_protocol_breaker_refuses_repeat_offender () =
  let dir, _engine = build_env ~docs:8 ~seed:3 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy =
    { Serve.default_policy with breaker_strikes = 2; breaker_cooldown_s = 60.0 }
  in
  with_server ~policy dir @@ fun _pid addr ->
  (* strike out: worker-protocol frames on the client port *)
  let c = Serve.Client.connect addr in
  Serve.Client.send c Wire.Shutdown;
  Serve.Client.send c Wire.Shutdown;
  (match Serve.Client.collect_terminal ~timeout_s:5.0 c with
  | exception Serve.Client.Unreachable _ -> ()
  | _ -> Alcotest.fail "server answered the worker protocol");
  Serve.Client.close c;
  (* the peer breaker is open: the next connect is turned away before
     the handshake *)
  match Serve.Client.connect ~timeout_s:2.0 addr with
  | exception Serve.Client.Unreachable _ -> ()
  | c2 ->
      Serve.Client.close c2;
      Alcotest.fail "tripped peer was accepted"

let () =
  (* Remote shard workers exec this very binary: dispatch before
     Alcotest ever sees argv. *)
  (match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: rest ->
      let rec get_opt key = function
        | k :: v :: _ when k = key -> Some v
        | _ :: tl -> get_opt key tl
        | [] -> None
      in
      let get key =
        match get_opt key rest with
        | Some v -> v
        | None ->
            prerr_endline ("shard-worker: missing " ^ key);
            exit 2
      in
      let dir = get "--dir" and shard = get "--shard" in
      (match get_opt "--listen" rest with
      | Some addr -> Supervisor.worker_listen ~dir ~shard ~addr ()
      | None -> Supervisor.worker_main ~dir ~shard ())
  | _ -> ());
  Alcotest.run "trex_serve"
    [
      ( "identity",
        [
          Alcotest.test_case "served answers = direct evaluation" `Quick
            test_answer_identity;
          Alcotest.test_case "TCP_NODELAY on client and listener" `Quick
            test_no_delay;
        ] );
      ( "overload",
        [
          Alcotest.test_case
            "soak: every request answers or sheds, no fd leaks" `Quick
            test_overload_soak;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM mid-query: clean terminal frame, exit 0"
            `Quick test_sigterm_drain;
        ] );
      ( "remote",
        [
          Alcotest.test_case "remote worker SIGKILL degrades to tagged partial"
            `Quick test_remote_worker_kill_through_front_door;
        ] );
      ( "invalid",
        [
          Alcotest.test_case "malformed NEXI sheds on single and sharded"
            `Quick test_malformed_query_sheds;
        ] );
      ( "abuse",
        [
          Alcotest.test_case "slowloris frames are disconnected" `Quick
            test_slowloris_disconnect;
          Alcotest.test_case "repeat protocol offender refused at accept"
            `Quick test_protocol_breaker_refuses_repeat_offender;
        ] );
    ]
