module Crc32 = Trex_util.Crc32
module Metrics = Trex_obs.Metrics

(* Process-wide totals across every pager; the per-pager mutable stats
   below stay the per-file view that [stats] reports. *)
let m_physical_reads = Metrics.counter "pager.physical_reads"
let m_physical_writes = Metrics.counter "pager.physical_writes"
let m_cache_hits = Metrics.counter "pager.cache_hits"
let m_cache_misses = Metrics.counter "pager.cache_misses"
let m_checksum_failures = Metrics.counter "pager.checksum_failures"
let m_fsyncs = Metrics.counter "pager.fsyncs"
let m_recoveries = Metrics.counter "pager.recoveries"

type stats = {
  physical_reads : int;
  physical_writes : int;
  cache_hits : int;
  cache_misses : int;
  checksum_failures : int;
  recoveries : int;
}

type corruption_info = { path : string; page : int; detail : string }

exception Corruption of corruption_info

exception Injected_crash of string

let () =
  Printexc.register_printer (function
    | Corruption { path; page; detail } ->
        Some
          (if page < 0 then Printf.sprintf "Corruption in %s: %s" path detail
           else Printf.sprintf "Corruption in %s, page %d: %s" path page detail)
    | Injected_crash what -> Some ("Injected_crash: " ^ what)
    | _ -> None)

type fault =
  | Crash_after_writes of int
  | Torn_write of { after_writes : int; keep_bytes : int }
  | Flip_bit of { after_writes : int; byte_index : int; bit : int }
  | Drop_fsync

type recovery = { recovered : bool; epoch_used : int; note : string }

type decoded = ..

(* One resident page. [decoded], when present, is the parsed form of
   [buf] that a layer above cached here ({!read_decoded}); both always
   describe the same page. *)
type frame = {
  buf : bytes;
  mutable dirty : bool;
  mutable stamp : int;
  mutable decoded : decoded option;
}

(* A memory pager keeps every page as a frame in the cache and never
   evicts; a file pager bounds the cache at [cache_pages] frames. *)
type backend =
  | Memory
  | File of { fd : Unix.file_descr; cache_pages : int; path : string }

type t = {
  backend : backend;
  page_size : int;
  mutable page_count : int;
  (* Pages the newest committed header covers: their on-disk copies are
     what a crash falls back to, so a dirty one is pinned in the cache
     until the next {!flush} writes it together with a new header. *)
  mutable committed_count : int;
  mutable pinned : int; (* dirty frames with id < committed_count *)
  mutable root : int;
  mutable epoch : int;
  scratch : bytes; (* page_size + trailer; reused by physical reads/writes *)
  cache : (int, frame) Hashtbl.t;
  mutable tick : int;
  mutable faults : fault list;
  mutable io_seq : int; (* every raw write, pages and header slots alike *)
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable checksum_failures : int;
  mutable recoveries : int;
}

(* On-disk format "TRExPG02".

   Two 64-byte header slots occupy the first 128 bytes; a commit with
   epoch E writes slot (E mod 2), so a torn header write can only damage
   one slot and the other still holds the previous committed epoch.
   Slot layout:
     magic (8) | epoch (8 BE) | page_size (8 BE) | page_count (8 BE)
     | root (8 BE) | zeros (20) | crc32 of bytes [0,60) (4 BE)

   Each page occupies page_size + 4 bytes: the data followed by a CRC32
   trailer written in the same syscall, so torn page writes and bit rot
   are detected on the next physical read. *)
let magic = "TRExPG02"
let slot_size = 64
let header_size = 2 * slot_size
let page_trailer = 4
let max_page_size = 1 lsl 20

let default_page_size = 8192

let path t =
  match t.backend with Memory -> "<memory>" | File { path; _ } -> path

let corrupt t ~page detail = raise (Corruption { path = path t; page; detail })

let mk backend ~page_size ~page_count ~root ~epoch ~recoveries =
  {
    backend;
    page_size;
    page_count;
    committed_count = page_count;
    pinned = 0;
    root;
    epoch;
    scratch = Bytes.make (page_size + page_trailer) '\x00';
    cache = Hashtbl.create 64;
    tick = 0;
    faults = [];
    io_seq = 0;
    physical_reads = 0;
    physical_writes = 0;
    cache_hits = 0;
    cache_misses = 0;
    checksum_failures = 0;
    recoveries;
  }

let create_memory ?(page_size = default_page_size) () =
  mk Memory ~page_size ~page_count:0 ~root:(-1) ~epoch:0
    ~recoveries:0

(* ---- fault injection ---- *)

let create_faulty ~faults t =
  t.faults <- faults @ t.faults;
  t

let io_seq t = t.io_seq

let fsync_dropped t =
  List.exists (function Drop_fsync -> true | _ -> false) t.faults

let do_fsync t fd =
  if not (fsync_dropped t) then begin
    Metrics.incr m_fsyncs;
    Unix.fsync fd
  end

(* All bytes that reach the file go through here, so the fault plan sees
   a single write sequence covering pages and header slots. *)
let raw_write t fd ~off buf len =
  t.io_seq <- t.io_seq + 1;
  let seq = t.io_seq in
  let eff_len = ref len and crash_msg = ref None in
  List.iter
    (fun fault ->
      match fault with
      | Crash_after_writes n ->
          if seq > n then
            raise
              (Injected_crash
                 (Printf.sprintf "crash before write #%d (limit %d)" seq n))
      | Torn_write { after_writes; keep_bytes } ->
          if seq = after_writes + 1 then begin
            eff_len := max 0 (min len keep_bytes);
            crash_msg :=
              Some
                (Printf.sprintf "torn write #%d (%d of %d bytes)" seq !eff_len
                   len)
          end
      | Flip_bit { after_writes; byte_index; bit } ->
          if seq = after_writes + 1 && len > 0 then begin
            let i = ((byte_index mod len) + len) mod len in
            Bytes.set buf i
              (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl (bit land 7))))
          end
      | Drop_fsync -> ())
    t.faults;
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go o =
    if o < !eff_len then begin
      let n = Unix.write fd buf o (!eff_len - o) in
      if n <= 0 then failwith "Pager: short page write";
      go (o + n)
    end
  in
  go 0;
  match !crash_msg with Some msg -> raise (Injected_crash msg) | None -> ()

(* ---- header slots ---- *)

let encode_slot t =
  let b = Bytes.make slot_size '\x00' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_be b 8 (Int64.of_int t.epoch);
  Bytes.set_int64_be b 16 (Int64.of_int t.page_size);
  Bytes.set_int64_be b 24 (Int64.of_int t.page_count);
  Bytes.set_int64_be b 32 (Int64.of_int t.root);
  Bytes.set_int32_be b (slot_size - 4) (Crc32.bytes b ~pos:0 ~len:(slot_size - 4));
  b

let write_slot t fd slot =
  raw_write t fd ~off:(slot * slot_size) (encode_slot t) slot_size

(* Advance the epoch and persist the header into the alternating slot.
   The previous epoch's slot is untouched, so the update is atomic at
   slot granularity: a crash mid-write invalidates only the new slot. *)
let commit_header ?(sync = false) t =
  match t.backend with
  | Memory -> ()
  | File { fd; _ } ->
      t.epoch <- t.epoch + 1;
      write_slot t fd (t.epoch land 1);
      t.committed_count <- t.page_count;
      if sync then do_fsync t fd

type decoded_slot = {
  d_epoch : int;
  d_page_size : int;
  d_page_count : int;
  d_root : int;
}

(* Returns [Error reason] rather than raising: open-time recovery wants
   to inspect both slots and pick the best one. *)
let decode_slot ~file_len b off =
  if Bytes.sub_string b off 8 <> magic then Error "bad magic"
  else begin
    let stored = Bytes.get_int32_be b (off + slot_size - 4) in
    let actual = Crc32.bytes b ~pos:off ~len:(slot_size - 4) in
    if stored <> actual then Error "header checksum mismatch"
    else begin
      let d_epoch = Int64.to_int (Bytes.get_int64_be b (off + 8)) in
      let d_page_size = Int64.to_int (Bytes.get_int64_be b (off + 16)) in
      let d_page_count = Int64.to_int (Bytes.get_int64_be b (off + 24)) in
      let d_root = Int64.to_int (Bytes.get_int64_be b (off + 32)) in
      if d_page_size <= 0 || d_page_size > max_page_size then
        Error (Printf.sprintf "absurd page_size %d" d_page_size)
      else if d_epoch < 0 then Error (Printf.sprintf "absurd epoch %d" d_epoch)
      else if d_page_count < 0 then
        Error (Printf.sprintf "absurd page_count %d" d_page_count)
      else if d_root < -1 || d_root >= d_page_count then
        Error (Printf.sprintf "root %d outside [0,%d)" d_root d_page_count)
      else if
        header_size + (d_page_count * (d_page_size + page_trailer)) > file_len
      then
        Error
          (Printf.sprintf "page_count %d overruns file of %d bytes"
             d_page_count file_len)
      else Ok { d_epoch; d_page_size; d_page_count; d_root }
    end
  end

let create_file ?(page_size = default_page_size) ?(cache_pages = 4096) path =
  if page_size <= 0 || page_size > max_page_size then
    invalid_arg (Printf.sprintf "Pager.create_file: page_size %d" page_size);
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t =
    mk (File { fd; cache_pages; path }) ~page_size ~page_count:0 ~root:(-1)
      ~epoch:0 ~recoveries:0
  in
  (* Both slots start valid at epoch 0, so a later invalid slot always
     means damage, never a fresh file. *)
  write_slot t fd 0;
  write_slot t fd 1;
  t

let open_internal ~allow_fallback ?(cache_pages = 4096) path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let fail page detail =
    Unix.close fd;
    raise (Corruption { path; page; detail })
  in
  let file_len = (Unix.fstat fd).Unix.st_size in
  if file_len < header_size then
    fail (-1) (Printf.sprintf "truncated file: %d bytes, header needs %d"
                 file_len header_size);
  let hdr = Bytes.create header_size in
  let rec fill off =
    if off < header_size then begin
      let n = Unix.read fd hdr off (header_size - off) in
      if n = 0 then fail (-1) "short header read" else fill (off + n)
    end
  in
  fill 0;
  let s0 = decode_slot ~file_len hdr 0 in
  let s1 = decode_slot ~file_len hdr slot_size in
  let finish ~slot ~fell_back ~note =
    if fell_back then Metrics.incr m_recoveries;
    let t =
      mk
        (File { fd; cache_pages; path })
        ~page_size:slot.d_page_size ~page_count:slot.d_page_count
        ~root:slot.d_root ~epoch:slot.d_epoch
        ~recoveries:(if fell_back then 1 else 0)
    in
    (t, { recovered = fell_back; epoch_used = slot.d_epoch; note })
  in
  match (s0, s1) with
  | Ok a, Ok b ->
      let newest = if a.d_epoch >= b.d_epoch then a else b in
      finish ~slot:newest ~fell_back:false
        ~note:(Printf.sprintf "clean (epoch %d)" newest.d_epoch)
  | Ok good, Error bad | Error bad, Ok good ->
      (* One slot is damaged; the survivor is the last commit that fully
         reached the disk. Strict opens refuse so the caller knows the
         newest commit may have been lost. *)
      if allow_fallback then
        finish ~slot:good ~fell_back:true
          ~note:
            (Printf.sprintf
               "fell back to header epoch %d (other slot: %s)" good.d_epoch bad)
      else
        fail (-1)
          (Printf.sprintf
             "header slot damaged (%s); reopen with recovery to fall back to \
              epoch %d"
             bad good.d_epoch)
  | Error e0, Error e1 ->
      fail (-1)
        (Printf.sprintf "both header slots invalid (slot0: %s; slot1: %s)" e0 e1)

let open_file ?cache_pages path =
  fst (open_internal ~allow_fallback:false ?cache_pages path)

let open_with_recovery ?cache_pages path =
  open_internal ~allow_fallback:true ?cache_pages path

let page_size t = t.page_size
let page_count t = t.page_count
let pinned_pages t = t.pinned

let cache_pages t =
  match t.backend with Memory -> max_int | File { cache_pages; _ } -> cache_pages

(* Root updates are buffered in memory and only reach the disk at the
   next {!flush} — after the pages they point into — so a crash can
   never publish a root whose subtree was not written. *)
let set_root t r = t.root <- r
let get_root t = t.root

let file_offset t id = header_size + (id * (t.page_size + page_trailer))

let physical_read t fd id buf =
  let slot = t.page_size + page_trailer in
  ignore (Unix.lseek fd (file_offset t id) Unix.SEEK_SET);
  let rec fill off =
    if off >= slot then off
    else begin
      let n = Unix.read fd t.scratch off (slot - off) in
      if n = 0 then off else fill (off + n)
    end
  in
  let got = fill 0 in
  t.physical_reads <- t.physical_reads + 1;
  Metrics.incr m_physical_reads;
  if got < slot then
    corrupt t ~page:id
      (Printf.sprintf "truncated page: %d of %d bytes on disk" got slot);
  let stored = Bytes.get_int32_be t.scratch t.page_size in
  let actual = Crc32.bytes t.scratch ~pos:0 ~len:t.page_size in
  if stored <> actual then begin
    t.checksum_failures <- t.checksum_failures + 1;
    Metrics.incr m_checksum_failures;
    corrupt t ~page:id
      (Printf.sprintf "page checksum mismatch (stored %08lx, computed %08lx)"
         stored actual)
  end;
  Bytes.blit t.scratch 0 buf 0 t.page_size

let physical_write t fd id buf =
  Bytes.blit buf 0 t.scratch 0 t.page_size;
  Bytes.set_int32_be t.scratch t.page_size
    (Crc32.bytes t.scratch ~pos:0 ~len:t.page_size);
  raw_write t fd ~off:(file_offset t id) t.scratch (t.page_size + page_trailer);
  t.physical_writes <- t.physical_writes + 1;
  Metrics.incr m_physical_writes

let pinned t c id = c.dirty && id < t.committed_count

(* Evict the least recently used page that may leave the cache: a clean
   page, or a dirty one past the committed page count, whose slot no
   committed header reaches. A dirty page the last header covers is
   pinned: writing it back before the next header commit would tear the
   committed tree a crash falls back to. With every frame pinned the
   cache grows past its bound until the next flush. Linear scan is
   fine: eviction is rare relative to hits and the cache is bounded.
   The decoded form leaves with its frame. *)
let evict_one t fd =
  if t.pinned < Hashtbl.length t.cache then begin
    let victim = ref (-1) and best = ref max_int in
    Hashtbl.iter
      (fun id c ->
        if c.stamp < !best && not (pinned t c id) then begin
          best := c.stamp;
          victim := id
        end)
      t.cache;
    if !victim >= 0 then begin
      let c = Hashtbl.find t.cache !victim in
      if c.dirty then physical_write t fd !victim c.buf;
      Hashtbl.remove t.cache !victim
    end
  end

let touch t c =
  t.tick <- t.tick + 1;
  c.stamp <- t.tick

let new_frame t buf ~dirty =
  let c = { buf; dirty; stamp = 0; decoded = None } in
  touch t c;
  c

(* Room for one more frame: a full file cache evicts its LRU page. *)
let make_room t =
  match t.backend with
  | File { fd; cache_pages; _ } when Hashtbl.length t.cache >= cache_pages ->
      evict_one t fd
  | Memory | File _ -> ()

let allocate t =
  let id = t.page_count in
  t.page_count <- t.page_count + 1;
  make_room t;
  Hashtbl.replace t.cache id (new_frame t (Bytes.make t.page_size '\x00') ~dirty:true);
  id

let check_id t id =
  if id < 0 || id >= t.page_count then
    invalid_arg (Printf.sprintf "Pager: page id %d out of range [0,%d)" id t.page_count)

(* The resident frame of page [id], faulting it in (CRC-checked) on a
   miss. Every read path goes through here, so hit/miss accounting is
   the same whether the caller wants bytes or the decoded form. A
   memory pager always hits until it is closed: it never evicts. *)
let frame t id =
  check_id t id;
  match Hashtbl.find_opt t.cache id with
  | Some c ->
      t.cache_hits <- t.cache_hits + 1;
      Metrics.incr m_cache_hits;
      touch t c;
      c
  | None -> (
      match t.backend with
      | Memory -> invalid_arg "Pager: memory pager used after close"
      | File { fd; _ } ->
          t.cache_misses <- t.cache_misses + 1;
          Metrics.incr m_cache_misses;
          make_room t;
          let buf = Bytes.create t.page_size in
          physical_read t fd id buf;
          let c = new_frame t buf ~dirty:false in
          Hashtbl.replace t.cache id c;
          c)

let read t id = (frame t id).buf

let read_decoded t id ~decode =
  let c = frame t id in
  match c.decoded with
  | Some d -> d
  | None ->
      let d = decode c.buf in
      c.decoded <- Some d;
      d

(* The frame a write lands in: resident or fresh, dirty and touched.
   Writes are not counted as hits or misses. *)
let frame_for_write t id =
  check_id t id;
  match Hashtbl.find_opt t.cache id with
  | Some c ->
      if (not c.dirty) && id < t.committed_count then t.pinned <- t.pinned + 1;
      c.dirty <- true;
      touch t c;
      c
  | None ->
      make_room t;
      if id < t.committed_count then t.pinned <- t.pinned + 1;
      let c = new_frame t (Bytes.create t.page_size) ~dirty:true in
      Hashtbl.replace t.cache id c;
      c

let write t id buf =
  if Bytes.length buf <> t.page_size then
    invalid_arg "Pager.write: buffer length mismatch";
  let c = frame_for_write t id in
  if not (c.buf == buf) then Bytes.blit buf 0 c.buf 0 t.page_size;
  c.decoded <- None

(* The encoder writes into a zeroed page, so unused tail bytes are
   deterministic. *)
let write_decoded t id d ~encode =
  let c = frame_for_write t id in
  Bytes.fill c.buf 0 t.page_size '\x00';
  encode c.buf;
  c.decoded <- Some d

let flush ?(sync = false) t =
  match t.backend with
  | Memory -> ()
  | File { fd; _ } ->
      Hashtbl.iter
        (fun id c ->
          if c.dirty then begin
            physical_write t fd id c.buf;
            if id < t.committed_count then t.pinned <- t.pinned - 1;
            c.dirty <- false
          end)
        t.cache;
      if sync then do_fsync t fd;
      commit_header ~sync t

let verify_checksums t =
  match t.backend with
  | Memory -> []
  | File { fd; _ } ->
      let buf = Bytes.create t.page_size in
      let bad = ref [] in
      for id = t.page_count - 1 downto 0 do
        match physical_read t fd id buf with
        | () -> ()
        | exception Corruption { detail; _ } -> bad := (id, detail) :: !bad
      done;
      !bad

let close t =
  flush ~sync:true t;
  match t.backend with
  | Memory -> Hashtbl.reset t.cache
  | File { fd; _ } -> Unix.close fd

let abort t =
  Hashtbl.reset t.cache;
  t.pinned <- 0;
  match t.backend with
  | Memory -> ()
  | File { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let stats t =
  {
    physical_reads = t.physical_reads;
    physical_writes = t.physical_writes;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    checksum_failures = t.checksum_failures;
    recoveries = t.recoveries;
  }
