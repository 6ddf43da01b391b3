type event =
  | Start_element of { tag : string; attrs : (string * string) list; start_pos : int }
  | End_element of { tag : string; end_pos : int }
  | Text of { content : string; start_pos : int }

exception Malformed of { message : string; pos : int }

let fail pos fmt = Printf.ksprintf (fun message -> raise (Malformed { message; pos })) fmt

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start = function
  | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

type state = { src : string; mutable pos : int; emit : event -> unit }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let looking_at st lit =
  let n = String.length lit in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = lit

let expect st lit =
  if looking_at st lit then st.pos <- st.pos + String.length lit
  else fail st.pos "expected %S" lit

let skip_spaces st =
  while st.pos < String.length st.src && is_space st.src.[st.pos] do
    st.pos <- st.pos + 1
  done

let read_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> st.pos <- st.pos + 1
  | Some c -> fail st.pos "invalid name start character %C" c
  | None -> fail st.pos "unexpected end of input in name");
  while st.pos < String.length st.src && is_name_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let skip_until st lit =
  let n = String.length st.src in
  let continue = ref true in
  while !continue do
    if st.pos >= n then fail st.pos "unterminated construct, expected %S" lit
    else if looking_at st lit then begin
      st.pos <- st.pos + String.length lit;
      continue := false
    end
    else st.pos <- st.pos + 1
  done

let read_attr_value st =
  match peek st with
  | Some (('"' | '\'') as q) ->
      st.pos <- st.pos + 1;
      let start = st.pos in
      (match String.index_from_opt st.src st.pos q with
      | Some close ->
          st.pos <- close + 1;
          let raw = String.sub st.src start (close - start) in
          (try Escape.unescape raw with Failure m -> fail start "%s" m)
      | None -> fail start "unterminated attribute value")
  | _ -> fail st.pos "attribute value must be quoted"

let read_attrs st =
  let rec go acc =
    skip_spaces st;
    match peek st with
    | Some c when is_name_start c ->
        let name = read_name st in
        skip_spaces st;
        expect st "=";
        skip_spaces st;
        let value = read_attr_value st in
        go ((name, value) :: acc)
    | Some _ | None -> List.rev acc
  in
  go []

(* Skip a <!DOCTYPE ...> declaration, tolerating a bracketed internal
   subset. *)
let skip_doctype st =
  let n = String.length st.src in
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    if st.pos >= n then fail st.pos "unterminated DOCTYPE"
    else begin
      (match st.src.[st.pos] with
      | '[' -> incr depth
      | ']' -> decr depth
      | '>' when !depth = 0 -> continue := false
      | _ -> ());
      st.pos <- st.pos + 1
    end
  done

(* Prolog / epilog content: spaces, comments, PIs, doctype. *)
let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_until st "-->";
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    st.pos <- st.pos + 9;
    skip_doctype st;
    skip_misc st
  end

let parse src emit =
  let st = { src; pos = 0; emit } in
  let n = String.length src in
  let stack = ref [] in
  let buf = Buffer.create 256 in
  let text_start = ref 0 in
  let saw_root = ref false in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let content = Buffer.contents buf in
      Buffer.clear buf;
      if not (String.for_all is_space content) then
        st.emit (Text { content; start_pos = !text_start })
    end
  in
  let after_root_closes () =
    skip_misc st;
    if st.pos < n then fail st.pos "content after document element"
  in
  skip_misc st;
  if st.pos >= n then fail st.pos "no document element";
  if src.[st.pos] <> '<' then fail st.pos "text outside the document element";
  let running = ref true in
  while !running do
    if st.pos >= n then begin
      (match !stack with
      | (tag, open_pos) :: _ -> fail open_pos "element <%s> never closed" tag
      | [] -> ());
      running := false
    end
    else if src.[st.pos] = '<' then begin
      flush_text ();
      if looking_at st "<!--" then begin
        skip_until st "-->";
        text_start := st.pos
      end
      else if looking_at st "<![CDATA[" then begin
        let data_start = st.pos + 9 in
        st.pos <- data_start;
        skip_until st "]]>";
        let data = String.sub src data_start (st.pos - 3 - data_start) in
        if data <> "" then begin
          if Buffer.length buf = 0 then text_start := data_start;
          Buffer.add_string buf data
        end
      end
      else if looking_at st "<?" then begin
        skip_until st "?>";
        text_start := st.pos
      end
      else if looking_at st "</" then begin
        let close_start = st.pos in
        st.pos <- st.pos + 2;
        let tag = read_name st in
        skip_spaces st;
        expect st ">";
        (match !stack with
        | (open_tag, open_pos) :: rest ->
            if open_tag <> tag then
              fail close_start "mismatched </%s>, expected </%s> (opened at %d)"
                tag open_tag open_pos;
            stack := rest;
            st.emit (End_element { tag; end_pos = st.pos })
        | [] -> fail close_start "closing tag </%s> with no open element" tag);
        text_start := st.pos;
        if !stack = [] then begin
          after_root_closes ();
          running := false
        end
      end
      else begin
        let start_pos = st.pos in
        st.pos <- st.pos + 1;
        let tag = read_name st in
        let attrs = read_attrs st in
        skip_spaces st;
        if !stack = [] then begin
          if !saw_root then fail start_pos "multiple document elements";
          saw_root := true
        end;
        if looking_at st "/>" then begin
          st.pos <- st.pos + 2;
          st.emit (Start_element { tag; attrs; start_pos });
          st.emit (End_element { tag; end_pos = st.pos });
          text_start := st.pos;
          if !stack = [] then begin
            after_root_closes ();
            running := false
          end
        end
        else begin
          expect st ">";
          stack := (tag, start_pos) :: !stack;
          st.emit (Start_element { tag; attrs; start_pos });
          text_start := st.pos
        end
      end
    end
    else if !stack = [] then fail st.pos "text outside the document element"
    else begin
      if Buffer.length buf = 0 then text_start := st.pos;
      if src.[st.pos] = '&' then begin
        let semi =
          match String.index_from_opt src st.pos ';' with
          | Some j -> j
          | None -> fail st.pos "unterminated entity"
        in
        let raw = String.sub src st.pos (semi - st.pos + 1) in
        (try Buffer.add_string buf (Escape.unescape raw)
         with Failure m -> fail st.pos "%s" m);
        st.pos <- semi + 1
      end
      else begin
        (* Consume a run of plain text bytes in one go. *)
        let start = st.pos in
        while st.pos < n && src.[st.pos] <> '<' && src.[st.pos] <> '&' do
          st.pos <- st.pos + 1
        done;
        Buffer.add_substring buf src start (st.pos - start)
      end
    end
  done
