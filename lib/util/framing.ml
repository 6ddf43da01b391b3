type 'a swept = {
  fd : Unix.file_descr;
  records : 'a list;
  corrupt : int;
  torn : bool;
}

(* A length field above this is a corrupt header, not a huge record. *)
let max_payload = 1 lsl 24

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b 8 len;
  b

let header_len contents pos = Int32.to_int (String.get_int32_le contents pos)

(* Whether [pos] starts a chain of frames that ends exactly at the end
   of [contents], every frame CRC-valid and decodable. Headers are
   walked first, so most offsets are rejected without a CRC. *)
let chain_to_end ~decode contents pos =
  let n = String.length contents in
  let rec fits pos =
    pos = n
    || pos + 8 <= n
       &&
       let len = header_len contents pos in
       len >= 0 && len <= max_payload && pos + 8 + len <= n && fits (pos + 8 + len)
  in
  let rec valid pos =
    pos = n
    ||
    let len = header_len contents pos in
    let payload = String.sub contents (pos + 8) len in
    Crc32.string payload = String.get_int32_le contents (pos + 4)
    && decode payload <> None
    && valid (pos + 8 + len)
  in
  fits pos && valid pos

let scan ~decode contents =
  let n = String.length contents in
  let records = ref [] in
  let corrupt = ref 0 in
  (* A header that is absurd or runs past the end is a torn tail —
     unless whole frames resume later and run to the end: then the
     header itself was damaged, and the frames after it are kept. *)
  let rec resync ~bad p =
    if p + 8 > n then (bad, true)
    else if chain_to_end ~decode contents p then begin
      incr corrupt;
      go p
    end
    else resync ~bad (p + 1)
  and go pos =
    if pos = n then (pos, false)
    else if pos + 8 > n then (pos, true) (* torn header *)
    else
      let len = header_len contents pos in
      let crc = String.get_int32_le contents (pos + 4) in
      if len < 0 || len > max_payload || pos + 8 + len > n then resync ~bad:pos (pos + 1)
      else begin
        let payload = String.sub contents (pos + 8) len in
        (if Crc32.string payload <> crc then incr corrupt
         else
           match decode payload with
           | Some r -> records := r :: !records
           | None -> incr corrupt);
        go (pos + 8 + len)
      end
  in
  let valid_end, torn = go 0 in
  (List.rev !records, !corrupt, valid_end, torn)

(* ---- EINTR-safe raw I/O ----

   These loops back both the on-disk journals/manifests and the
   supervisor's socketpair wire protocol. On sockets and pipes a
   signal (SIGCHLD from a dying worker, a profiler's SIGPROF) can
   interrupt the call at any byte boundary, and writes are routinely
   short — both must be resumed, not surfaced, or a heartbeat could
   tear a frame mid-payload. *)

let rec intr_read fd b off len =
  match Unix.read fd b off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> intr_read fd b off len

let rec intr_write fd b off len =
  match Unix.write fd b off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> intr_write fd b off len

let read_all fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec fill off =
    if off < size then
      match intr_read fd b off (size - off) with
      | 0 -> off
      | n -> fill (off + n)
    else off
  in
  let got = fill 0 in
  Bytes.sub_string b 0 got

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + intr_write fd b off (len - off))
  in
  go 0

let reset ~magic fd =
  Unix.ftruncate fd 0;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  write_all fd (Bytes.of_string magic)

let append fd payload = write_all fd (frame payload)

let open_file ~magic ~decode path =
  let magic_len = String.length magic in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let contents = read_all fd in
  let swept =
    if contents = "" then begin
      write_all fd (Bytes.of_string magic);
      { fd; records = []; corrupt = 0; torn = false }
    end
    else if
      String.length contents < magic_len
      || String.sub contents 0 magic_len <> magic
    then begin
      (* Not a file we wrote (or a magic torn mid-write): there is no
         valid prefix to preserve, so start the file over. *)
      reset ~magic fd;
      { fd; records = []; corrupt = 1; torn = false }
    end
    else begin
      let body =
        String.sub contents magic_len (String.length contents - magic_len)
      in
      let records, corrupt, valid_end, torn = scan ~decode body in
      if torn then Unix.ftruncate fd (magic_len + valid_end);
      { fd; records; corrupt; torn }
    end
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  swept

(* ---- incremental stream decoder ---- *)

exception Corrupt_frame of string

module Decoder = struct
  type t = { buf : Buffer.t; mutable pos : int }

  let create () = { buf = Buffer.create 256; pos = 0 }
  let feed t b off len = Buffer.add_subbytes t.buf b off len
  let feed_string t s = Buffer.add_string t.buf s
  let buffered t = Buffer.length t.buf - t.pos

  (* Drop consumed bytes once they dominate the buffer, so a long-lived
     connection doesn't grow it without bound. *)
  let compact t =
    if t.pos > 4096 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let next t =
    let avail = Buffer.length t.buf - t.pos in
    if avail < 8 then None
    else begin
      let header = Buffer.sub t.buf t.pos 8 in
      let len = Int32.to_int (String.get_int32_le header 0) in
      let crc = String.get_int32_le header 4 in
      if len < 0 || len > max_payload then
        raise (Corrupt_frame (Printf.sprintf "absurd frame length %d" len));
      if avail < 8 + len then None
      else begin
        let payload = Buffer.sub t.buf (t.pos + 8) len in
        if Crc32.string payload <> crc then
          raise (Corrupt_frame "frame payload fails its CRC32");
        t.pos <- t.pos + 8 + len;
        compact t;
        Some payload
      end
    end
end

let recv fd decoder =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Decoder.next decoder with
    | Some payload -> Some payload
    | None -> (
        match intr_read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if Decoder.buffered decoder > 0 then
              raise (Corrupt_frame "EOF inside a frame")
            else None
        | n ->
            Decoder.feed decoder chunk 0 n;
            go ())
  in
  go ()

(* ---- deadline-bounded frame read ----

   The deadlines are {e absolute} points on the monotonic clock,
   computed once and re-checked around every select/read: a peer that
   dribbles one byte at a time resets nothing, so it can never extend
   its deadline (the slowloris defense — see the qcheck property in
   test_util.ml). EINTR on the select or read resumes with whatever
   time remains. *)

type deadline_outcome =
  | Frame of string
  | Eof  (** clean EOF at a frame boundary *)
  | Idle_timeout  (** no frame started within [idle_timeout_s] *)
  | Frame_timeout
      (** a frame started (bytes buffered) but did not complete within
          [frame_timeout_s] of its first byte *)

let rec select_readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* The caller recomputes the remaining time from the absolute
         deadline, so treating EINTR as "nothing readable yet" can only
         shorten the wait, never extend it. *)
      if timeout = 0.0 then false else select_readable fd 0.0

let recv_deadline ?idle_timeout_s ?frame_timeout_s fd decoder =
  let now () = Stopclock.now () in
  let idle_deadline = Option.map (fun t -> now () +. t) idle_timeout_s in
  (* Anchored when the first byte of an incomplete frame is seen —
     including bytes already buffered by a previous read. *)
  let frame_deadline =
    ref
      (match frame_timeout_s with
      | Some t when Decoder.buffered decoder > 0 -> Some (now () +. t)
      | _ -> None)
  in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Decoder.next decoder with
    | Some payload -> Frame payload
    | None ->
        let mid_frame = Decoder.buffered decoder > 0 in
        let deadline =
          if mid_frame then begin
            (match (!frame_deadline, frame_timeout_s) with
            | None, Some t -> frame_deadline := Some (now () +. t)
            | _ -> ());
            !frame_deadline
          end
          else begin
            frame_deadline := None;
            idle_deadline
          end
        in
        let remaining =
          match deadline with
          | None -> -1.0 (* wait forever *)
          | Some d -> d -. now ()
        in
        if remaining = -1.0 || remaining > 0.0 then begin
          if select_readable fd remaining then
            match intr_read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                if Decoder.buffered decoder > 0 then
                  raise (Corrupt_frame "EOF inside a frame")
                else Eof
            | n ->
                Decoder.feed decoder chunk 0 n;
                go ()
          else go ()
        end
        else if mid_frame then Frame_timeout
        else Idle_timeout
  in
  go ()
