module Framing = Trex_util.Framing
module Metrics = Trex_obs.Metrics
module Json = Trex_obs.Json

let m_appends = Metrics.counter "manifest.appends"
let m_corrupt = Metrics.counter "manifest.corrupt_records"
let m_torn = Metrics.counter "manifest.torn_tails"
let m_recovered = Metrics.counter "manifest.records_recovered"
let m_ops_begun = Metrics.counter "manifest.ops_begun"
let m_ops_committed = Metrics.counter "manifest.ops_committed"

type action =
  | Put of { table : string; key : string; value : string }
  | Remove of { table : string; key : string }
  | Remove_prefix of { table : string; prefix : string }

type record =
  | Checkpoint of { generation : int; next_op_id : int }
  | Begin of {
      op_id : int;
      op : string;
      tables : string list;
      rollback : string list;
      generation : int;
    }
  | Step of { op_id : int; action : action }
  | Commit of { op_id : int }
  | Abort of { op_id : int; note : string }
  | End of { op_id : int }

type status = Roll_forward | Roll_back

type pending = {
  p_op_id : int;
  p_op : string;
  p_tables : string list;
  p_rollback : string list;
  p_generation : int;
  p_status : status;
  p_steps : action list;
}

let magic = "TREXMF1\n"

type op_state = {
  mutable s_op : string;
  mutable s_tables : string list;
  mutable s_rollback : string list;
  mutable s_generation : int;
  mutable s_steps : action list; (* newest first *)
  mutable s_committed : bool;
}

type backend = Mem | File of { fd : Unix.file_descr; file_path : string }

(* Only unresolved operations are held in memory: an [End] or [Abort]
   drops its op, so a long-running process's memory does not grow
   with the records it appends. *)
type t = {
  backend : backend;
  ops : (int, op_state) Hashtbl.t; (* unresolved ops only *)
  mutable order : int list; (* their ids, newest Begin first *)
  opened : record list; (* the open-time sweep, oldest first *)
  mutable count : int; (* records in the file *)
  mutable generation : int; (* highest committed *)
  mutable issued : int; (* highest generation any Begin carries *)
  mutable next_op_id : int;
  mutable closed : bool;
}

(* ------------------------------------------------------------------ *)
(* Hex codec: keys and values are raw B+tree bytes, so they pass
   through JSON hex-encoded. *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

exception Bad_hex

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise Bad_hex

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then raise Bad_hex;
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.unsafe_set b i
      (Char.unsafe_chr ((hex_digit s.[2 * i] lsl 4) lor hex_digit s.[(2 * i) + 1]))
  done;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let action_to_json = function
  | Put { table; key; value } ->
      Json.Obj
        [
          ("a", Json.String "put");
          ("tbl", Json.String table);
          ("k", Json.String (to_hex key));
          ("v", Json.String (to_hex value));
        ]
  | Remove { table; key } ->
      Json.Obj
        [
          ("a", Json.String "rm");
          ("tbl", Json.String table);
          ("k", Json.String (to_hex key));
        ]
  | Remove_prefix { table; prefix } ->
      Json.Obj
        [
          ("a", Json.String "rmp");
          ("tbl", Json.String table);
          ("k", Json.String (to_hex prefix));
        ]

let record_to_json = function
  | Checkpoint { generation; next_op_id } ->
      Json.Obj
        [
          ("t", Json.String "checkpoint");
          ("gen", Json.Int generation);
          ("next", Json.Int next_op_id);
        ]
  | Begin { op_id; op; tables; rollback; generation } ->
      Json.Obj
        [
          ("t", Json.String "begin");
          ("id", Json.Int op_id);
          ("op", Json.String op);
          ("tables", Json.List (List.map (fun s -> Json.String s) tables));
          ("rollback", Json.List (List.map (fun s -> Json.String s) rollback));
          ("gen", Json.Int generation);
        ]
  | Step { op_id; action } ->
      Json.Obj
        (("t", Json.String "step")
        :: ("id", Json.Int op_id)
        ::
        (match action_to_json action with Json.Obj fields -> fields | _ -> []))
  | Commit { op_id } ->
      Json.Obj [ ("t", Json.String "commit"); ("id", Json.Int op_id) ]
  | Abort { op_id; note } ->
      Json.Obj
        [
          ("t", Json.String "abort");
          ("id", Json.Int op_id);
          ("note", Json.String note);
        ]
  | End { op_id } -> Json.Obj [ ("t", Json.String "end"); ("id", Json.Int op_id) ]

let jstr j k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let jint j k =
  match Json.member k j with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let jstrs j k =
  match Json.member k j with
  | Some (Json.List l) ->
      Some (List.filter_map (function Json.String s -> Some s | _ -> None) l)
  | _ -> None

let action_of_json j =
  match (jstr j "a", jstr j "tbl", jstr j "k") with
  | Some "put", Some table, Some k -> (
      match jstr j "v" with
      | Some v -> (
          match (of_hex k, of_hex v) with
          | key, value -> Some (Put { table; key; value })
          | exception Bad_hex -> None)
      | None -> None)
  | Some "rm", Some table, Some k -> (
      match of_hex k with
      | key -> Some (Remove { table; key })
      | exception Bad_hex -> None)
  | Some "rmp", Some table, Some k -> (
      match of_hex k with
      | prefix -> Some (Remove_prefix { table; prefix })
      | exception Bad_hex -> None)
  | _ -> None

let record_of_json j =
  match jstr j "t" with
  | Some "checkpoint" -> (
      match (jint j "gen", jint j "next") with
      | Some generation, Some next_op_id -> Some (Checkpoint { generation; next_op_id })
      | _ -> None)
  | Some "begin" -> (
      match (jint j "id", jstr j "op", jint j "gen") with
      | Some op_id, Some op, Some generation ->
          Some
            (Begin
               {
                 op_id;
                 op;
                 tables = Option.value ~default:[] (jstrs j "tables");
                 rollback = Option.value ~default:[] (jstrs j "rollback");
                 generation;
               })
      | _ -> None)
  | Some "step" -> (
      match (jint j "id", action_of_json j) with
      | Some op_id, Some action -> Some (Step { op_id; action })
      | _ -> None)
  | Some "commit" -> (
      match jint j "id" with Some op_id -> Some (Commit { op_id }) | None -> None)
  | Some "abort" -> (
      match jint j "id" with
      | Some op_id ->
          Some (Abort { op_id; note = Option.value ~default:"" (jstr j "note") })
      | None -> None)
  | Some "end" -> (
      match jint j "id" with Some op_id -> Some (End { op_id }) | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Derived state                                                       *)

(* Fold one record into the op table. Orphan records (a Step/Commit/End
   whose Begin was lost to corruption) carry no recoverable intent, so
   they are counted corrupt and dropped — the per-table CRCs still
   guard the data they described. *)
let apply_record t r =
  match r with
  | Checkpoint { generation; next_op_id } ->
      t.generation <- max t.generation generation;
      t.issued <- max t.issued generation;
      t.next_op_id <- max t.next_op_id next_op_id
  | Begin { op_id; op; tables; rollback; generation } ->
      Hashtbl.replace t.ops op_id
        {
          s_op = op;
          s_tables = tables;
          s_rollback = rollback;
          s_generation = generation;
          s_steps = [];
          s_committed = false;
        };
      t.order <- op_id :: t.order;
      t.issued <- max t.issued generation;
      t.next_op_id <- max t.next_op_id (op_id + 1)
  | Step { op_id; action } -> (
      match Hashtbl.find_opt t.ops op_id with
      | Some s -> s.s_steps <- action :: s.s_steps
      | None -> Metrics.incr m_corrupt)
  | Commit { op_id } -> (
      match Hashtbl.find_opt t.ops op_id with
      | Some s ->
          s.s_committed <- true;
          t.generation <- max t.generation s.s_generation
      | None -> Metrics.incr m_corrupt)
  | Abort { op_id; _ } | End { op_id } ->
      if Hashtbl.mem t.ops op_id then begin
        Hashtbl.remove t.ops op_id;
        t.order <- List.filter (fun id -> id <> op_id) t.order
      end
      else Metrics.incr m_corrupt

(* Framed-payload codec for {!Trex_util.Framing} (same on-disk
   discipline as the query journal): undecodable JSON is a corrupt
   frame. *)
let decode payload =
  match record_of_json (Json.parse payload) with
  | r -> r
  | exception Json.Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let make backend records =
  let t =
    {
      backend;
      ops = Hashtbl.create 8;
      order = [];
      opened = records;
      count = List.length records;
      generation = 0;
      issued = 0;
      next_op_id = 0;
      closed = false;
    }
  in
  List.iter (apply_record t) records;
  t

let in_memory () = make Mem []

let open_file file_path =
  let swept = Framing.open_file ~magic ~decode file_path in
  Metrics.add m_corrupt swept.Framing.corrupt;
  Metrics.add m_recovered (List.length swept.Framing.records);
  if swept.Framing.torn then Metrics.incr m_torn;
  make (File { fd = swept.Framing.fd; file_path }) swept.Framing.records

let path t = match t.backend with Mem -> None | File f -> Some f.file_path
let records t = t.opened
let length t = t.count
let generation t = t.generation
let next_generation t = t.issued + 1

let fresh_op_id t =
  let id = t.next_op_id in
  t.next_op_id <- id + 1;
  id

let append t r =
  if t.closed then invalid_arg "Manifest.append: manifest is closed";
  (match t.backend with
  | Mem -> ()
  | File { fd; _ } -> Framing.append fd (Json.to_string (record_to_json r)));
  apply_record t r;
  t.count <- t.count + 1;
  Metrics.incr m_appends;
  (match r with
  | Begin _ -> Metrics.incr m_ops_begun
  | Commit _ -> Metrics.incr m_ops_committed
  | _ -> ())

let sync t =
  match t.backend with
  | Mem -> ()
  | File { fd; _ } -> if not t.closed then Unix.fsync fd

let pending t =
  List.rev_map
    (fun op_id ->
      let s = Hashtbl.find t.ops op_id in
      {
        p_op_id = op_id;
        p_op = s.s_op;
        p_tables = s.s_tables;
        p_rollback = s.s_rollback;
        p_generation = s.s_generation;
        p_status = (if s.s_committed then Roll_forward else Roll_back);
        p_steps = List.rev s.s_steps;
      })
    t.order

let compact t =
  if Hashtbl.length t.ops = 0 then begin
    let checkpoint = Checkpoint { generation = t.generation; next_op_id = t.next_op_id } in
    (match t.backend with
    | Mem -> ()
    | File { fd; _ } ->
        Framing.reset ~magic fd;
        Framing.append fd (Json.to_string (record_to_json checkpoint));
        Unix.fsync fd);
    t.count <- 1
  end

let close t =
  if not t.closed then begin
    (match t.backend with
    | Mem -> ()
    | File { fd; _ } ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd);
    t.closed <- true
  end

let abort t =
  if not t.closed then begin
    (match t.backend with Mem -> () | File { fd; _ } -> Unix.close fd);
    t.closed <- true
  end
