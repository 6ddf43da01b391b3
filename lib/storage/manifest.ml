module Framing = Trex_util.Framing
module Codec = Trex_util.Codec
module Metrics = Trex_obs.Metrics

let m_appends = Metrics.counter "manifest.appends"
let m_bytes = Metrics.counter "manifest.bytes"
let m_fsyncs = Metrics.counter "manifest.fsyncs"
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
  p_generation : int;
  p_status : status;
  p_steps : action list;
}

let magic = "TREXMF3\n"

exception Unsupported_format of { found : string option; expected : string }

let () =
  Printexc.register_printer (function
    | Unsupported_format { found; expected } ->
        Some
          (Printf.sprintf
             "environment format %s, this build reads %s; rebuild it from its documents"
             (Option.value found ~default:"none")
             expected)
    | _ -> None)

type op_state = {
  mutable s_op : string;
  mutable s_tables : string list;
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
(* Binary codec: a frame's payload is one or more records back to
   back, each a tag byte and its fields (varints and length-prefixed
   strings). *)

module Buf = Codec.Buf
module Reader = Codec.Reader

let add_strings b l =
  Buf.add_varint b (List.length l);
  List.iter (Buf.add_string b) l

let add_record b r =
  let tag c = Buf.add_raw b c in
  match r with
  | Checkpoint { generation; next_op_id } ->
      tag "K";
      Buf.add_varint b generation;
      Buf.add_varint b next_op_id
  | Begin { op_id; op; tables; generation } ->
      tag "B";
      Buf.add_varint b op_id;
      Buf.add_string b op;
      add_strings b tables;
      Buf.add_varint b generation
  | Step { op_id; action } -> (
      tag "S";
      Buf.add_varint b op_id;
      match action with
      | Put { table; key; value } ->
          tag "P";
          Buf.add_string b table;
          Buf.add_string b key;
          Buf.add_string b value
      | Remove { table; key } ->
          tag "R";
          Buf.add_string b table;
          Buf.add_string b key
      | Remove_prefix { table; prefix } ->
          tag "X";
          Buf.add_string b table;
          Buf.add_string b prefix)
  | Commit { op_id } ->
      tag "C";
      Buf.add_varint b op_id
  | Abort { op_id; note } ->
      tag "A";
      Buf.add_varint b op_id;
      Buf.add_string b note
  | End { op_id } ->
      tag "E";
      Buf.add_varint b op_id

let read_strings r = List.init (Reader.varint r) (fun _ -> Reader.string r)

let read_record r =
  match Reader.raw r 1 with
  | "K" ->
      let generation = Reader.varint r in
      Checkpoint { generation; next_op_id = Reader.varint r }
  | "B" ->
      let op_id = Reader.varint r in
      let op = Reader.string r in
      let tables = read_strings r in
      Begin { op_id; op; tables; generation = Reader.varint r }
  | "S" ->
      let op_id = Reader.varint r in
      let action =
        match Reader.raw r 1 with
        | "P" ->
            let table = Reader.string r in
            let key = Reader.string r in
            Put { table; key; value = Reader.string r }
        | "R" ->
            let table = Reader.string r in
            Remove { table; key = Reader.string r }
        | "X" ->
            let table = Reader.string r in
            Remove_prefix { table; prefix = Reader.string r }
        | a -> raise (Reader.Malformed ("manifest action " ^ a))
      in
      Step { op_id; action }
  | "C" -> Commit { op_id = Reader.varint r }
  | "A" ->
      let op_id = Reader.varint r in
      Abort { op_id; note = Reader.string r }
  | "E" -> End { op_id = Reader.varint r }
  | tag -> raise (Reader.Malformed ("manifest record " ^ tag))

(* Undecodable bytes make the whole frame corrupt: its records are all
   or nothing. *)
let decode payload =
  let r = Reader.of_string payload in
  let rec go acc = if Reader.at_end r then List.rev acc else go (read_record r :: acc) in
  match go [] with
  | [] -> None
  | records -> Some records
  | exception (Reader.Truncated | Reader.Malformed _ | Invalid_argument _) -> None

let encode records =
  let b = Buf.create () in
  List.iter (add_record b) records;
  Buf.contents b

(* The payloads of [records]: one, unless it would pass the frame
   limit; then as few as fit, split between records. *)
let payloads records =
  let whole = encode records in
  if String.length whole <= Framing.max_payload then [ whole ]
  else
    let close acc cur = if cur = [] then acc else String.concat "" (List.rev cur) :: acc in
    let rec pack acc cur size = function
      | [] -> List.rev (close acc cur)
      | r :: rest ->
          let s = encode [ r ] in
          let n = String.length s in
          if n > Framing.max_payload then
            invalid_arg "Manifest.append_records: record exceeds the frame limit";
          if size + n > Framing.max_payload then pack (close acc cur) [ s ] n rest
          else pack acc (s :: cur) (size + n) rest
    in
    pack [] [] 0 records

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
  | Begin { op_id; op; tables; generation } ->
      Hashtbl.replace t.ops op_id
        {
          s_op = op;
          s_tables = tables;
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

let fsync fd =
  Metrics.incr m_fsyncs;
  Unix.fsync fd

(* Append [records] as few frames in one write. *)
let write_records fd records =
  let frames = List.map Framing.frame (payloads records) in
  let b = Bytes.concat Bytes.empty frames in
  Framing.write_all fd b;
  Metrics.add m_appends (List.length frames);
  Metrics.add m_bytes (Bytes.length b)

(* Refuse a whole [TREXMF?\n] magic other than ours — an older version
   or a newer one — before the sweep, which would restart the file. A
   torn or foreign head holds nothing to preserve, and is restarted. *)
let check_version file_path =
  match open_in_bin file_path with
  | exception Sys_error _ -> ()
  | ic ->
      let head = try really_input_string ic (String.length magic) with End_of_file -> "" in
      close_in ic;
      let family = String.sub magic 0 (String.length magic - 2) in
      if head <> magic && String.starts_with ~prefix:family head && String.ends_with ~suffix:"\n" head
      then raise (Unsupported_format { found = Some (String.trim head); expected = String.trim magic })

let open_file file_path =
  check_version file_path;
  let swept = Framing.open_file ~magic ~decode file_path in
  Metrics.add m_corrupt swept.Framing.corrupt;
  if swept.Framing.torn then Metrics.incr m_torn;
  let records = List.concat swept.Framing.records in
  Metrics.add m_recovered (List.length records);
  make (File { fd = swept.Framing.fd; file_path }) records

let path t = match t.backend with Mem -> None | File f -> Some f.file_path
let records t = t.opened
let length t = t.count
let generation t = t.generation
let next_generation t = t.issued + 1

let fresh_op_id t =
  let id = t.next_op_id in
  t.next_op_id <- id + 1;
  id

let append_records t records =
  if t.closed then invalid_arg "Manifest.append: manifest is closed";
  if records <> [] then begin
    (match t.backend with
    | Mem -> Metrics.incr m_appends
    | File { fd; _ } -> write_records fd records);
    List.iter
      (fun r ->
        apply_record t r;
        t.count <- t.count + 1;
        match r with
        | Begin _ -> Metrics.incr m_ops_begun
        | Commit _ -> Metrics.incr m_ops_committed
        | _ -> ())
      records
  end

let append t r = append_records t [ r ]

let sync t =
  match t.backend with
  | Mem -> ()
  | File { fd; _ } -> if not t.closed then fsync fd

let pending t =
  List.rev_map
    (fun op_id ->
      let s = Hashtbl.find t.ops op_id in
      {
        p_op_id = op_id;
        p_op = s.s_op;
        p_tables = s.s_tables;
        p_generation = s.s_generation;
        p_status = (if s.s_committed then Roll_forward else Roll_back);
        p_steps = List.rev s.s_steps;
      })
    t.order

(* In place and unsynced: the file's next sync (the next operation's
   commit, or close) makes it durable. A crash before then leaves the
   old file, whose resolved operations replay idempotently, or an empty
   one, which restarts the counters; either way every operation it held
   is already durable in its tables. *)
let compact t =
  if Hashtbl.length t.ops = 0 && t.count > 1 then begin
    let checkpoint = Checkpoint { generation = t.generation; next_op_id = t.next_op_id } in
    (match t.backend with
    | Mem -> ()
    | File { fd; _ } ->
        Framing.reset ~magic fd;
        write_records fd [ checkpoint ]);
    t.count <- 1
  end

let close t =
  if not t.closed then begin
    (match t.backend with
    | Mem -> ()
    | File { fd; _ } ->
        (try fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd);
    t.closed <- true
  end

let abort t =
  if not t.closed then begin
    (match t.backend with Mem -> () | File { fd; _ } -> Unix.close fd);
    t.closed <- true
  end
