module Json = Trex_obs.Json
module Span = Trex_obs.Span
module Strategy = Trex_topk.Strategy
module Answer = Trex_topk.Answer
module Types = Trex_invindex.Types

exception Protocol_error of string

(* Bumped whenever a message gains or changes a field; wire.mli keeps
   the revision history and how a mixed fleet fails loud. *)
let version = 8

type query = {
  q_nexi : string;
  q_k : int;
  q_method : Strategy.method_ option;
  q_strict : bool;
  q_floor : float;
  q_deadline_ms : float option;
  q_page_budget : int option;
  q_fault : string option;
  q_trace : bool;
  q_trace_id : string option;
}

(* What a front-door client asks: no floor/fault/telemetry
   knobs — those belong to the coordinator↔worker conversation. The
   deadline and page budget are {e requests}; the server clamps them
   to its own policy. *)
type client_query = {
  c_nexi : string;
  c_k : int;
  c_method : Strategy.method_ option;
  c_strict : bool;
  c_deadline_ms : float option;
  c_page_budget : int option;
}

type request = Ping of int | Query of query | Client_query of client_query | Shutdown

type answer = {
  a_reply : (Shard.reply, string) result;
  a_spans : Span.t list;
  a_counters : (string * int) list;
}

type client_answer = {
  ca_answers : Answer.t;
  ca_k : int;
  ca_degraded : bool;
  ca_tags : (string * string) list;
  ca_method : string option;
  ca_elapsed_s : float;
}

type response =
  | Hello of { h_shard : string; h_pid : int; h_docs : int; h_wire : int }
  | Pong of int
  | Answer of answer
  | Client_answer of client_answer
  | Shed of { retry_after_ms : float; reason : string }
  | Drain

(* ---- field accessors (decode side) ---- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let get field j =
  match Json.member field j with
  | Some v -> v
  | None -> fail "missing field %S" field

let get_int field j =
  match get field j with Json.Int i -> i | _ -> fail "field %S: expected int" field

let get_float field j =
  match get field j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "field %S: expected number" field

let get_bool field j =
  match get field j with
  | Json.Bool b -> b
  | _ -> fail "field %S: expected bool" field

let opt_member field j =
  match Json.member field j with Some Json.Null | None -> None | Some v -> Some v

let method_of_string s =
  match
    List.find_opt (fun m -> Strategy.method_to_string m = s) Strategy.all_methods
  with
  | Some m -> m
  | None -> fail "unknown method %S" s

let opt_field field f = function None -> [] | Some v -> [ (field, f v) ]

let method_field =
  opt_field "method" (fun m -> Json.String (Strategy.method_to_string m))

(* Optional members shared by both query shapes and the answers. *)
let opt_string field j =
  Option.map
    (function Json.String s -> s | _ -> fail "field %S: expected string" field)
    (opt_member field j)

let opt_method j = Option.map method_of_string (opt_string "method" j)

let opt_deadline j =
  Option.map
    (function
      | Json.Float f -> f
      | Json.Int i -> float_of_int i
      | _ -> fail "deadline_ms")
    (opt_member "deadline_ms" j)

let opt_page_budget j =
  Option.map
    (function Json.Int i -> i | _ -> fail "page_budget")
    (opt_member "page_budget" j)

(* ---- answers ---- *)

let entry_to_json (e : Answer.entry) =
  let el = e.Answer.element in
  Json.Obj
    [
      ("sid", Json.Int el.Types.sid);
      ("docid", Json.Int el.Types.docid);
      ("endpos", Json.Int el.Types.endpos);
      ("length", Json.Int el.Types.length);
      ("score", Json.Float e.Answer.score);
    ]

let entry_of_json j =
  {
    Answer.element =
      {
        Types.sid = get_int "sid" j;
        docid = get_int "docid" j;
        endpos = get_int "endpos" j;
        length = get_int "length" j;
      };
    score = get_float "score" j;
  }

(* ---- requests ---- *)

let encode_request r =
  let j =
    match r with
    | Ping seq -> Json.Obj [ ("ping", Json.Int seq) ]
    | Shutdown -> Json.Obj [ ("shutdown", Json.Bool true) ]
    | Client_query c ->
        Json.Obj
          (("client_query", Json.String c.c_nexi)
          :: ("k", Json.Int c.c_k)
          :: ("strict", Json.Bool c.c_strict)
          :: (method_field c.c_method
             @ opt_field "deadline_ms" (fun f -> Json.Float f) c.c_deadline_ms
             @ opt_field "page_budget" (fun i -> Json.Int i) c.c_page_budget))
    | Query q ->
        Json.Obj
          (("query", Json.String q.q_nexi)
          :: ("k", Json.Int q.q_k)
          :: ("strict", Json.Bool q.q_strict)
          :: ("floor", Json.Float q.q_floor)
          :: ("trace", Json.Bool q.q_trace)
          :: (method_field q.q_method
             @ opt_field "deadline_ms" (fun f -> Json.Float f) q.q_deadline_ms
             @ opt_field "page_budget" (fun i -> Json.Int i) q.q_page_budget
             @ opt_field "fault" (fun s -> Json.String s) q.q_fault
             @ opt_field "trace_id" (fun s -> Json.String s) q.q_trace_id))
  in
  Json.to_string j

let decode_request s =
  let j = try Json.parse s with Json.Parse_error e -> fail "bad request JSON: %s" e in
  match
    ( Json.member "ping" j,
      Json.member "shutdown" j,
      Json.member "client_query" j,
      Json.member "query" j )
  with
  | Some (Json.Int seq), _, _, _ -> Ping seq
  | _, Some _, _, _ -> Shutdown
  | _, _, Some (Json.String nexi), _ ->
      Client_query
        {
          c_nexi = nexi;
          c_k = get_int "k" j;
          c_method = opt_method j;
          c_strict = get_bool "strict" j;
          c_deadline_ms = opt_deadline j;
          c_page_budget = opt_page_budget j;
        }
  | _, _, _, Some (Json.String nexi) ->
      Query
        {
          q_nexi = nexi;
          q_k = get_int "k" j;
          q_method = opt_method j;
          q_strict = get_bool "strict" j;
          q_floor = get_float "floor" j;
          q_deadline_ms = opt_deadline j;
          q_page_budget = opt_page_budget j;
          q_fault = opt_string "fault" j;
          (* Required since wire v2: a coordinator that omits it is a
             version-1 binary and must fail loud, not run untelemetered. *)
          q_trace = get_bool "trace" j;
          q_trace_id = opt_string "trace_id" j;
        }
  | _ -> fail "unrecognized request"

(* ---- responses ---- *)

let encode_response r =
  let j =
    match r with
    | Hello { h_shard; h_pid; h_docs; h_wire } ->
        Json.Obj
          [
            ("hello", Json.String h_shard);
            ("pid", Json.Int h_pid);
            ("docs", Json.Int h_docs);
            ("wire", Json.Int h_wire);
          ]
    | Pong seq -> Json.Obj [ ("pong", Json.Int seq) ]
    | Shed { retry_after_ms; reason } ->
        Json.Obj
          [ ("shed", Json.Float retry_after_ms); ("reason", Json.String reason) ]
    | Drain -> Json.Obj [ ("drain", Json.Bool true) ]
    | Client_answer ca ->
        Json.Obj
          (("client_answer", Json.Bool true)
          :: ("answers", Json.List (List.map entry_to_json ca.ca_answers))
          :: ("k", Json.Int ca.ca_k)
          :: ("degraded", Json.Bool ca.ca_degraded)
          :: ( "tags",
               Json.List
                 (List.map
                    (fun (n, r) -> Json.List [ Json.String n; Json.String r ])
                    ca.ca_tags) )
          :: ("elapsed_s", Json.Float ca.ca_elapsed_s)
          :: opt_field "method" (fun s -> Json.String s) ca.ca_method)
    | Answer a ->
        let reply =
          match a.a_reply with
          (* An empty "answers" still marks the frame as an answer. *)
          | Error e -> [ ("answers", Json.List []); ("error", Json.String e) ]
          | Ok (r : Shard.reply) ->
              ("degraded", Json.Bool r.partial)
              :: ("entries_read", Json.Int r.entries_read)
              :: ("elapsed_s", Json.Float r.elapsed_s)
              :: ("pages_used", Json.Int r.pages_used)
              :: ("answers", Json.List (List.map entry_to_json r.local_answers))
              :: ( "fallbacks",
                   Json.List
                     (List.map
                        (fun (f : Strategy.failover) ->
                          Json.List
                            [
                              Json.String (Strategy.method_to_string f.failed);
                              Json.String f.error;
                            ])
                        r.fallbacks) )
              :: method_field r.method_used
        in
        Json.Obj
          (reply
          @ [
              ("spans", Span.to_json a.a_spans);
              ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) a.a_counters));
            ])
  in
  Json.to_string j

let decode_tags j =
  match Json.member "tags" j with
  | Some (Json.List l) ->
      List.map
        (function
          | Json.List [ Json.String n; Json.String r ] -> (n, r)
          | _ -> fail "tags")
        l
  | _ -> fail "tags"

let decode_response s =
  let j = try Json.parse s with Json.Parse_error e -> fail "bad response JSON: %s" e in
  match Json.member "shed" j with
  | Some v ->
      let retry_after_ms =
        match v with
        | Json.Float f -> f
        | Json.Int i -> float_of_int i
        | _ -> fail "shed: expected number"
      in
      let reason =
        match Json.member "reason" j with
        | Some (Json.String r) -> r
        | _ -> "overloaded"
      in
      Shed { retry_after_ms; reason }
  | None -> (
  match Json.member "drain" j with
  | Some _ -> Drain
  | None -> (
  match Json.member "client_answer" j with
  | Some _ ->
      let entries =
        match Json.member "answers" j with
        | Some (Json.List l) -> List.map entry_of_json l
        | _ -> fail "client_answer: missing answers"
      in
      Client_answer
        {
          ca_answers = entries;
          ca_k = get_int "k" j;
          ca_degraded = get_bool "degraded" j;
          ca_tags = decode_tags j;
          ca_method = opt_string "method" j;
          ca_elapsed_s = get_float "elapsed_s" j;
        }
  | None -> (
  match (Json.member "hello" j, Json.member "pong" j, Json.member "answers" j) with
  | Some (Json.String shard), _, _ ->
      let h_wire =
        match Json.member "wire" j with
        | Some (Json.Int v) -> v
        | Some _ -> fail "field \"wire\": expected int"
        | None ->
            fail
              "wire version mismatch: worker %S predates versioning (wire v1), \
               coordinator speaks v%d"
              shard version
      in
      if h_wire <> version then
        fail "wire version mismatch: worker %S speaks v%d, coordinator v%d"
          shard h_wire version;
      Hello
        { h_shard = shard; h_pid = get_int "pid" j; h_docs = get_int "docs" j;
          h_wire }
  | _, Some (Json.Int seq), _ -> Pong seq
  | _, _, Some (Json.List entries) ->
      let fallback = function
        | Json.List [ Json.String m; Json.String error ] ->
            { Strategy.failed = method_of_string m; error }
        | _ -> fail "fallbacks"
      in
      Answer
        {
          a_reply =
            (match opt_string "error" j with
            | Some e -> Error e
            | None ->
                Ok
                  {
                    Shard.local_answers = List.map entry_of_json entries;
                    partial = get_bool "degraded" j;
                    method_used = opt_method j;
                    entries_read = get_int "entries_read" j;
                    elapsed_s = get_float "elapsed_s" j;
                    pages_used = get_int "pages_used" j;
                    fallbacks =
                      (match get "fallbacks" j with
                      | Json.List l -> List.map fallback l
                      | _ -> fail "fallbacks");
                  });
          (* Telemetry decode is lenient: versioning is enforced at the
             Hello handshake, and a missing payload degrades to "no
             telemetry", never to a poisoned merge. *)
          a_spans =
            (match Json.member "spans" j with
            | Some (Json.List _ as l) -> Span.of_json l
            | _ -> []);
          a_counters =
            (match Json.member "counters" j with
            | Some (Json.Obj fields) ->
                List.filter_map
                  (fun (n, v) ->
                    match v with Json.Int i -> Some (n, i) | _ -> None)
                  fields
            | _ -> []);
        }
  | _ -> fail "unrecognized response")))
