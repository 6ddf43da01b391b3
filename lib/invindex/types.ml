type pos = { docid : int; offset : int }

let compare_pos a b =
  match compare a.docid b.docid with 0 -> compare a.offset b.offset | c -> c

let m_pos = { docid = max_int; offset = max_int }
let is_m_pos p = p.docid = max_int && p.offset = max_int

type element = { sid : int; docid : int; endpos : int; length : int }

let start_pos e = e.endpos - e.length
let element_end e = { docid = e.docid; offset = e.endpos }
let dummy_element = { sid = -1; docid = max_int; endpos = max_int; length = 0 }
let is_dummy e = e.docid = max_int && e.endpos = max_int

let contains e (p : pos) =
  e.docid = p.docid && start_pos e < p.offset && p.offset < e.endpos

let element_contains_element ~outer ~inner =
  outer.docid = inner.docid
  && start_pos outer <= start_pos inner
  && inner.endpos <= outer.endpos
  && not (outer.endpos = inner.endpos && start_pos outer = start_pos inner)

let compare_element a b =
  match compare a.docid b.docid with
  | 0 -> (
      match compare a.endpos b.endpos with
      | 0 -> ( match compare a.length b.length with 0 -> compare a.sid b.sid | c -> c)
      | c -> c)
  | c -> c

let pp_element fmt e =
  Format.fprintf fmt "{sid=%d doc=%d end=%d len=%d}" e.sid e.docid e.endpos e.length
