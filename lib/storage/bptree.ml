module Codec = Trex_util.Codec
module Metrics = Trex_obs.Metrics

(* Process-wide total across every tree; per-tree stats are not kept. *)
let m_node_splits = Metrics.counter "bptree.node_splits"

(* Nodes are immutable values, and a page's pager frame is their single
   home: [read_node] returns the node cached in the frame (decoding the
   page once, after a CRC-checked miss), and [write_node] hands the
   pager a new node together with its encoding into the frame's page
   bytes. Insert and remove build new arrays and never touch a cached
   node, so a cursor can keep a leaf's entry array as its snapshot. *)
type node =
  | Leaf of { entries : (string * string) array; next : int }
  | Internal of {
      keys : string array; (* separators, length = #children - 1 *)
      children : int array;
    }

type Pager.decoded += Node of node

type t = { pager : Pager.t; mutable root : int; mutable count : int }

(* Serialized node layout: tag byte ('L'/'I'), then varint-framed
   fields. The node budget leaves room for the tag and slack. *)

let node_budget pager = Pager.page_size pager - 16
let entry_budget pager = node_budget pager / 4

let string_size s = Codec.varint_size (String.length s) + String.length s
let entry_size (k, v) = string_size k + string_size v
(* Internal-node bytes of separator [i] and the child to its right. *)
let separator_size keys children i = string_size keys.(i) + Codec.varint_size children.(i + 1)

(* Exactly the length [encode] writes, computed without writing. *)
let encoded_size = function
  | Leaf { entries; next } ->
      Array.fold_left
        (fun acc e -> acc + entry_size e)
        (1 + Codec.varint_size (Array.length entries) + Codec.varint_size next)
        entries
  | Internal { keys; children } ->
      let acc = 1 + Codec.varint_size (Array.length children) in
      let acc = Array.fold_left (fun acc c -> acc + Codec.varint_size c) acc children in
      Array.fold_left (fun acc k -> acc + string_size k) acc keys

let encode node page =
  let put_string pos s =
    let pos = Codec.set_varint page pos (String.length s) in
    Bytes.blit_string s 0 page pos (String.length s);
    pos + String.length s
  in
  match node with
  | Leaf { entries; next } ->
      Bytes.set page 0 'L';
      let pos = Codec.set_varint page 1 (Array.length entries) in
      let pos =
        Array.fold_left (fun pos (k, v) -> put_string (put_string pos k) v) pos entries
      in
      ignore (Codec.set_varint page pos next)
  | Internal { keys; children } ->
      Bytes.set page 0 'I';
      let pos = Codec.set_varint page 1 (Array.length children) in
      let pos = Array.fold_left (fun pos c -> Codec.set_varint page pos c) pos children in
      ignore (Array.fold_left put_string pos keys)

let write_node t id node =
  Pager.write_decoded t.pager id (Node node) ~encode:(encode node)

let corrupt t ~page detail =
  raise (Pager.Corruption { path = Pager.path t.pager; page; detail })

(* Parse a page into a node and the number of bytes its encoding took.
   Every field is copied out of the page ([Codec.Reader.string] makes
   substrings), so the node never aliases the frame's buffer. *)
let decode t id page =
  let r = Codec.Reader.of_string (Bytes.unsafe_to_string page) in
  match
    match Codec.Reader.raw r 1 with
    | "L" ->
        let n = Codec.Reader.varint r in
        let entries =
          Array.init n (fun _ ->
              let k = Codec.Reader.string r in
              let v = Codec.Reader.string r in
              (k, v))
        in
        let next = Codec.Reader.varint r in
        Leaf { entries; next }
    | "I" ->
        let nc = Codec.Reader.varint r in
        if nc < 1 then corrupt t ~page:id "internal node with no children";
        let children = Array.init nc (fun _ -> Codec.Reader.varint r) in
        let keys = Array.init (nc - 1) (fun _ -> Codec.Reader.string r) in
        Internal { keys; children }
    | tag -> corrupt t ~page:id (Printf.sprintf "corrupt node tag %S" tag)
  with
  | node -> (node, Codec.Reader.pos r)
  | exception (Codec.Reader.Truncated | Codec.Reader.Malformed _ | Invalid_argument _) ->
      corrupt t ~page:id "truncated node encoding"

let read_node t id =
  match Pager.read_decoded t.pager id ~decode:(fun page -> Node (fst (decode t id page))) with
  | Node node -> node
  | _ -> corrupt t ~page:id "page cached by another layer"

let create pager =
  let root = Pager.allocate pager in
  let t = { pager; root; count = 0 } in
  write_node t root (Leaf { entries = [||]; next = -1 });
  Pager.set_root pager root;
  t

let attach pager =
  let root = Pager.get_root pager in
  if root < 0 then
    raise
      (Pager.Corruption
         {
           path = Pager.path pager;
           page = -1;
           detail = "no committed root (tree creation never reached a commit)";
         });
  { pager; root; count = -1 }

let pager t = t.pager

let refresh t =
  let root = Pager.get_root t.pager in
  if root < 0 then failwith "Bptree.refresh: pager has no root";
  t.root <- root;
  t.count <- -1

(* First index i in [keys] with keys.(i) > key; the child to follow for
   [key] in an internal node. *)
let child_index keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index i in sorted [entries] with fst entries.(i) >= key. *)
let lower_bound entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst entries.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find t key =
  let rec go id =
    match read_node t id with
    | Internal { keys; children } -> go children.(child_index keys key)
    | Leaf { entries; _ } ->
        let i = lower_bound entries key in
        if i < Array.length entries && fst entries.(i) = key then
          Some (snd entries.(i))
        else None
  in
  go t.root

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let array_remove arr i =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

(* Byte-balanced split of [n >= 2] slots weighing [size i] bytes: the
   smallest s in [1, n-1] whose prefix [0, s) holds at least half the
   bytes. The prefix then exceeds half by at most one slot and the rest
   is at most half, so with slots bounded by the entry budget both
   halves fit a node whatever the mix of entry sizes. *)
let balanced_split n size =
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + size i
  done;
  let rec go s prefix =
    if s >= n - 1 || 2 * prefix >= !total then s else go (s + 1) (prefix + size s)
  in
  go 1 (size 0)

(* Result of inserting into a subtree: either the node fit, or it split
   and the parent must add (separator, right-page-id). *)
type split = No_split | Split of string * int

let split_leaf t id ~budget ~at entries next =
  let n = Array.length entries in
  let right_id = Pager.allocate t.pager in
  let left s = Leaf { entries = Array.sub entries 0 s; next = right_id } in
  let right s = Leaf { entries = Array.sub entries s (n - s); next } in
  (* Byte-balanced, unless the new entry [at] lands past that point and
     splitting just before it leaves two fitting halves: the entries
     ahead of it then stay packed, so a run of ascending inserts leaves
     full leaves behind it instead of half-empty ones, at the end of the
     table (an append, [at = n - 1]) and in its middle alike. *)
  let s = balanced_split n (fun i -> entry_size entries.(i)) in
  let s =
    if at > s && encoded_size (left at) <= budget && encoded_size (right at) <= budget
    then at
    else s
  in
  write_node t right_id (right s);
  write_node t id (left s);
  Metrics.incr m_node_splits;
  Split (fst entries.(s), right_id)

let split_internal t id keys children =
  let nk = Array.length keys in
  (* keys.(m) moves up; keys [0, m) stay left, (m, nk) go right. *)
  let m = balanced_split nk (separator_size keys children) in
  let right_id = Pager.allocate t.pager in
  write_node t right_id
    (Internal
       { keys = Array.sub keys (m + 1) (nk - m - 1); children = Array.sub children (m + 1) (nk - m) });
  write_node t id
    (Internal { keys = Array.sub keys 0 m; children = Array.sub children 0 (m + 1) });
  Metrics.incr m_node_splits;
  Split (keys.(m), right_id)

let check_entry t key value =
  if String.length key + String.length value > entry_budget t.pager then
    invalid_arg
      (Printf.sprintf "Bptree.insert: entry of %d bytes exceeds budget %d"
         (String.length key + String.length value)
         (entry_budget t.pager))

let insert t ~key ~value =
  check_entry t key value;
  let budget = node_budget t.pager in
  let rec go id =
    match read_node t id with
    | Leaf { entries; next } ->
        let n = Array.length entries in
        let i = lower_bound entries key in
        let entries =
          if i < n && fst entries.(i) = key then begin
            let copy = Array.copy entries in
            copy.(i) <- (key, value);
            copy
          end
          else begin
            if t.count >= 0 then t.count <- t.count + 1;
            array_insert entries i (key, value)
          end
        in
        let node = Leaf { entries; next } in
        if encoded_size node <= budget then begin
          write_node t id node;
          No_split
        end
        else split_leaf t id ~budget ~at:i entries next
    | Internal { keys; children } -> (
        let ci = child_index keys key in
        match go children.(ci) with
        | No_split -> No_split
        | Split (sep, right_id) ->
            let keys = array_insert keys ci sep in
            let children = array_insert children (ci + 1) right_id in
            let node = Internal { keys; children } in
            if encoded_size node <= budget then begin
              write_node t id node;
              No_split
            end
            else split_internal t id keys children)
  in
  match go t.root with
  | No_split -> ()
  | Split (sep, right_id) ->
      let new_root = Pager.allocate t.pager in
      write_node t new_root
        (Internal { keys = [| sep |]; children = [| t.root; right_id |] });
      t.root <- new_root;
      Pager.set_root t.pager new_root

(* [entries] and [share] are key-sorted; on a shared key the share's
   value wins. Returns the merge and how many keys it added. *)
let merge_entries entries share =
  let ne = Array.length entries and ns = Array.length share in
  let out = Array.make (ne + ns) ("", "") in
  let rec go i j o =
    if i = ne then begin
      Array.blit share j out o (ns - j);
      o + ns - j
    end
    else if j = ns then begin
      Array.blit entries i out o (ne - i);
      o + ne - i
    end
    else
      let c = String.compare (fst entries.(i)) (fst share.(j)) in
      if c < 0 then begin
        out.(o) <- entries.(i);
        go (i + 1) j (o + 1)
      end
      else begin
        out.(o) <- share.(j);
        go (if c = 0 then i + 1 else i) (j + 1) (o + 1)
      end
  in
  let len = go 0 0 0 in
  (Array.sub out 0 len, len - ne)

let insert_batch t puts =
  List.iter (fun (key, value) -> check_entry t key value) puts;
  (* Key order, the last put of a key winning: a stable sort keeps equal
     keys in put order, and only the last of each run survives. *)
  let batch =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) puts
    |> List.fold_left
         (fun acc ((k, _) as e) ->
           match acc with (k', _) :: rest when k = k' -> e :: rest | _ -> e :: acc)
         []
    |> List.rev |> Array.of_list
  in
  let n = Array.length batch in
  let budget = node_budget t.pager in
  (* One descent per leaf: the leaf that [key] lands in, and the
     separator bounding it on the right (the batch keys below it are the
     leaf's share). *)
  let rec descend id key high =
    match read_node t id with
    | Internal { keys; children } ->
        let ci = child_index keys key in
        descend children.(ci) key (if ci < Array.length keys then Some keys.(ci) else high)
    | Leaf { entries; next } -> (id, entries, next, high)
  in
  let rec go i =
    if i < n then begin
      let id, entries, next, high = descend t.root (fst batch.(i)) None in
      let stop = ref (i + 1) in
      (match high with
      | None -> stop := n
      | Some h -> while !stop < n && String.compare (fst batch.(!stop)) h < 0 do incr stop done);
      let share = Array.sub batch i (!stop - i) in
      let merged, added = merge_entries entries share in
      let node = Leaf { entries = merged; next } in
      if encoded_size node <= budget then begin
        write_node t id node;
        if t.count >= 0 then t.count <- t.count + added
      end
      else
        (* An overflowing share goes in key by key, so every split
           follows the one rule of [insert]. *)
        Array.iter (fun (key, value) -> insert t ~key ~value) share;
      go !stop
    end
  in
  go 0

let remove t key =
  let rec go id =
    match read_node t id with
    | Internal { keys; children } -> go children.(child_index keys key)
    | Leaf { entries; next } ->
        let i = lower_bound entries key in
        if i < Array.length entries && fst entries.(i) = key then begin
          write_node t id (Leaf { entries = array_remove entries i; next });
          if t.count >= 0 then t.count <- t.count - 1;
          true
        end
        else false
  in
  go t.root

module Cursor = struct
  type cursor = {
    tree : t;
    prefix : string; (* [next] ends at the first key without it *)
    mutable entries : (string * string) array;
    mutable idx : int;
    mutable next_leaf : int;
  }

  let rec load c leaf_id =
    if leaf_id < 0 then begin
      c.entries <- [||];
      c.idx <- 0;
      c.next_leaf <- -1
    end
    else
      match read_node c.tree leaf_id with
      | Leaf { entries; next } ->
          if Array.length entries = 0 && next >= 0 then load c next
          else begin
            c.entries <- entries;
            c.idx <- 0;
            c.next_leaf <- next
          end
      | Internal _ -> failwith "Bptree.Cursor: internal node in leaf chain"

  let leftmost_leaf t =
    let rec go id =
      match read_node t id with
      | Leaf _ -> id
      | Internal { children; _ } -> go children.(0)
    in
    go t.root

  let seek_first t =
    let c = { tree = t; prefix = ""; entries = [||]; idx = 0; next_leaf = -1 } in
    load c (leftmost_leaf t);
    c

  let seek_prefix t ~prefix key =
    let rec descend id =
      match read_node t id with
      | Internal { keys; children } -> descend children.(child_index keys key)
      | Leaf _ -> id
    in
    let leaf_id = descend t.root in
    let c = { tree = t; prefix; entries = [||]; idx = 0; next_leaf = -1 } in
    load c leaf_id;
    c.idx <- lower_bound c.entries key;
    (* The sought key may be past this leaf's last entry. *)
    if c.idx >= Array.length c.entries && c.next_leaf >= 0 then load c c.next_leaf;
    c

  let seek t key = seek_prefix t ~prefix:"" key

  let next c =
    if c.idx < Array.length c.entries then begin
      let ((k, _) as e) = c.entries.(c.idx) in
      c.idx <- c.idx + 1;
      if c.idx >= Array.length c.entries && c.next_leaf >= 0 then
        load c c.next_leaf;
      if String.starts_with ~prefix:c.prefix k then Some e
      else begin
        (* Keys are sorted: none past this one has the prefix. *)
        c.entries <- [||];
        c.next_leaf <- -1;
        None
      end
    end
    else None
end

let iter t f =
  let c = Cursor.seek_first t in
  let rec go () =
    match Cursor.next c with
    | Some (k, v) ->
        f k v;
        go ()
    | None -> ()
  in
  go ()

let iter_prefix t ~prefix f =
  let c = Cursor.seek_prefix t ~prefix prefix in
  let rec go () =
    match Cursor.next c with
    | Some (k, v) ->
        f k v;
        go ()
    | None -> ()
  in
  go ()

let fold_range t ~low ~high ~init ~f =
  let c = Cursor.seek t low in
  let rec go acc =
    match Cursor.next c with
    | None -> acc
    | Some (k, v) -> (
        match high with
        | Some h when String.compare k h >= 0 -> acc
        | Some _ | None -> go (f acc k v))
  in
  go init

let length t =
  if t.count < 0 then begin
    let n = ref 0 in
    iter t (fun _ _ -> incr n);
    t.count <- !n
  end;
  t.count

let bulk_load pager seq =
  let budget = node_budget pager in
  let fill = budget * 4 / 5 in
  (* Pack entries into leaves left to right, then build each internal
     level from the (first-key, page) list of the level below. *)
  let leaves = ref [] in
  let cur = ref [] and cur_size = ref 8 and last_key = ref None in
  let flush_leaf () =
    if !cur <> [] then begin
      let entries = Array.of_list (List.rev !cur) in
      let id = Pager.allocate pager in
      leaves := (fst entries.(0), id, entries) :: !leaves;
      cur := [];
      cur_size := 8
    end
  in
  let count = ref 0 in
  Seq.iter
    (fun (k, v) ->
      (match !last_key with
      | Some prev when String.compare prev k >= 0 ->
          invalid_arg "Bptree.bulk_load: keys not strictly ascending"
      | Some _ | None -> ());
      last_key := Some k;
      incr count;
      let sz = String.length k + String.length v + 10 in
      if sz > entry_budget pager then
        invalid_arg "Bptree.bulk_load: entry exceeds budget";
      if !cur_size + sz > fill then flush_leaf ();
      cur := (k, v) :: !cur;
      cur_size := !cur_size + sz)
    seq;
  flush_leaf ();
  let t = { pager; root = -1; count = !count } in
  let leaves = List.rev !leaves in
  (* Chain the leaves and write them. *)
  let rec write_chain = function
    | [] -> ()
    | [ (_, id, entries) ] -> write_node t id (Leaf { entries; next = -1 })
    | (_, id, entries) :: ((_, nid, _) :: _ as rest) ->
        write_node t id (Leaf { entries; next = nid });
        write_chain rest
  in
  (match leaves with
  | [] ->
      let root = Pager.allocate pager in
      write_node t root (Leaf { entries = [||]; next = -1 });
      t.root <- root
  | _ -> write_chain leaves);
  if t.root < 0 then begin
    (* Build internal levels bottom-up from (first_key, page_id). *)
    let level =
      ref (List.map (fun (k, id, _) -> (k, id)) leaves)
    in
    while List.length !level > 1 do
      let next_level = ref [] in
      let group = ref [] and group_size = ref 8 in
      let flush_group () =
        match List.rev !group with
        | [] -> ()
        | (k0, c0) :: rest ->
            let keys = Array.of_list (List.map fst rest) in
            let children = Array.of_list (c0 :: List.map snd rest) in
            let id = Pager.allocate pager in
            write_node t id (Internal { keys; children });
            next_level := (k0, id) :: !next_level;
            group := [];
            group_size := 8
      in
      List.iter
        (fun (k, id) ->
          let sz = String.length k + 12 in
          if !group_size + sz > fill && List.length !group >= 2 then flush_group ();
          group := (k, id) :: !group;
          group_size := !group_size + sz)
        !level;
      flush_group ();
      level := List.rev !next_level
    done;
    (match !level with
    | [ (_, id) ] -> t.root <- id
    | _ -> assert false)
  end;
  Pager.set_root pager t.root;
  (* Durable commit point: the freshly packed pages reach the disk
     before the header that publishes the new root. A crash anywhere in
     the load leaves the previous committed epoch intact. *)
  Pager.flush ~sync:true pager;
  t

(* ---- structural verification ---- *)

type verify_report = {
  pages : int;
  entries : int;
  depth : int;
  fill : float;
  problems : string list;
}

let max_reported_problems = 32

let verify t =
  let problems = ref [] and n_problems = ref 0 in
  let add p =
    incr n_problems;
    if !n_problems <= max_reported_problems then problems := p :: !problems
  in
  let page_count = Pager.page_count t.pager in
  let budget = node_budget t.pager in
  let visited = Hashtbl.create 256 in
  let leaves = ref [] in
  (* (id, next) in key order *)
  let entries = ref 0 in
  let leaf_bytes = ref 0 in
  let max_depth = ref 0 in
  let in_bounds key low high =
    (match low with Some l -> String.compare l key <= 0 | None -> true)
    && match high with Some h -> String.compare key h < 0 | None -> true
  in
  let check_sorted id what keys =
    Array.iteri
      (fun i k ->
        if i > 0 && String.compare keys.(i - 1) k >= 0 then
          add
            (Printf.sprintf "page %d: %s out of order at slot %d (%S >= %S)" id
               what i
               keys.(i - 1)
               k))
      keys
  in
  let check_size id node used =
    if used <> encoded_size node then
      add
        (Printf.sprintf "page %d: encoding takes %d bytes, encoded_size says %d" id used
           (encoded_size node));
    if used > budget then
      add (Printf.sprintf "page %d: node of %d bytes exceeds budget %d" id used budget)
  in
  let rec walk id ~low ~high ~depth =
    if id < 0 || id >= page_count then
      add (Printf.sprintf "child link to page %d outside [0,%d)" id page_count)
    else if Hashtbl.mem visited id then
      add (Printf.sprintf "page %d reached twice (cycle or shared subtree)" id)
    else begin
      Hashtbl.add visited id ();
      if depth > !max_depth then max_depth := depth;
      (* Decode from the page bytes, not the cached node, so the
         encoding itself is what gets checked. *)
      match decode t id (Pager.read t.pager id) with
      | exception Pager.Corruption { detail; _ } ->
          add (Printf.sprintf "page %d: %s" id detail)
      | (Leaf { entries = es; next } as node), used ->
          check_size id node used;
          leaves := (id, next) :: !leaves;
          leaf_bytes := !leaf_bytes + used;
          entries := !entries + Array.length es;
          check_sorted id "leaf keys" (Array.map fst es);
          Array.iter
            (fun (k, _) ->
              if not (in_bounds k low high) then
                add
                  (Printf.sprintf "page %d: leaf key %S escapes separator bounds"
                     id k))
            es
      | (Internal { keys; children } as node), used ->
          check_size id node used;
          if Array.length children <> Array.length keys + 1 then
            add
              (Printf.sprintf "page %d: %d children for %d separators" id
                 (Array.length children) (Array.length keys));
          check_sorted id "separators" keys;
          Array.iter
            (fun k ->
              if not (in_bounds k low high) then
                add
                  (Printf.sprintf "page %d: separator %S escapes bounds" id k))
            keys;
          Array.iteri
            (fun i child ->
              let lo = if i = 0 then low else Some keys.(i - 1) in
              let hi =
                if i < Array.length keys then Some keys.(i) else high
              in
              walk child ~low:lo ~high:hi ~depth:(depth + 1))
            children
    end
  in
  walk t.root ~low:None ~high:None ~depth:1;
  (* The DFS visits leaves left to right; the sibling chain must link
     them in exactly that order and terminate. *)
  let rec check_chain = function
    | [] -> ()
    | [ (id, next) ] ->
        if next <> -1 then
          add (Printf.sprintf "last leaf %d has dangling next %d" id next)
    | (id, next) :: ((id', _) :: _ as rest) ->
        if next <> id' then
          add
            (Printf.sprintf "leaf %d links to %d, expected next leaf %d" id next
               id');
        check_chain rest
  in
  check_chain (List.rev !leaves);
  if !n_problems > max_reported_problems then
    problems :=
      Printf.sprintf "... and %d more problems"
        (!n_problems - max_reported_problems)
      :: !problems;
  {
    pages = Hashtbl.length visited;
    entries = !entries;
    depth = !max_depth;
    fill =
      (match !leaves with
      | [] -> 0.0
      | l -> float_of_int !leaf_bytes /. float_of_int (List.length l * budget));
    problems = List.rev !problems;
  }
