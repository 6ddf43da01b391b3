open Xpath_ast

exception Syntax_error of { message : string; pos : int }

let fail pos fmt = Printf.ksprintf (fun message -> raise (Syntax_error { message; pos })) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_spaces st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let looking_at st lit =
  let n = String.length lit in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = lit

let eat st lit =
  if looking_at st lit then st.pos <- st.pos + String.length lit
  else fail st.pos "expected %S" lit

(* A word boundary check so "android" is not read as "and". *)
let looking_at_word st word =
  looking_at st word
  &&
  let after = st.pos + String.length word in
  after >= String.length st.src
  ||
  match st.src.[after] with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> false
  | _ -> true

let is_name_start = function 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let read_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> st.pos <- st.pos + 1
  | _ -> fail st.pos "expected a name");
  while st.pos < String.length st.src && is_name_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let axis_of_name pos = function
  | "child" -> Child
  | "descendant" -> Descendant
  | "descendant-or-self" -> Descendant_or_self
  | "self" -> Self
  | "parent" -> Parent
  | "ancestor" -> Ancestor
  | "following-sibling" -> Following_sibling
  | "preceding-sibling" -> Preceding_sibling
  | "attribute" -> Attribute
  | name -> fail pos "unknown axis %s" name

let rec parse_path st =
  skip_spaces st;
  let absolute = looking_at st "/" in
  let first_axis =
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      Some Descendant
    end
    else if looking_at st "/" then begin
      st.pos <- st.pos + 1;
      Some Child
    end
    else None
  in
  (* "/" alone selects the root: represent as absolute self::node(). *)
  skip_spaces st;
  if absolute && (peek st = None || peek st = Some ']' || peek st = Some ')') then
    { absolute = true; steps = [ { axis = Self; test = Node; predicates = [] } ] }
  else begin
    let first = parse_step st (Option.value ~default:Child first_axis) in
    let rec more acc =
      skip_spaces st;
      if looking_at st "//" then begin
        st.pos <- st.pos + 2;
        more (List.rev_append (parse_step st Descendant) acc)
      end
      else if looking_at st "/" then begin
        st.pos <- st.pos + 1;
        more (List.rev_append (parse_step st Child) acc)
      end
      else List.rev acc
    in
    { absolute; steps = more (List.rev first) }
  end

(* A syntactic step can desugar into two semantic steps: [//@id] means
   descendant::node()/attribute::id, and similarly for [//.] etc. *)
and parse_step st default_axis =
  skip_spaces st;
  let prefix_for_abbreviation =
    match default_axis with
    | Descendant -> [ { axis = Descendant; test = Node; predicates = [] } ]
    | _ -> []
  in
  if looking_at st ".." then begin
    st.pos <- st.pos + 2;
    prefix_for_abbreviation
    @ [ { axis = Parent; test = Node; predicates = parse_predicates st } ]
  end
  else if looking_at st "." then begin
    st.pos <- st.pos + 1;
    prefix_for_abbreviation
    @ [ { axis = Self; test = Node; predicates = parse_predicates st } ]
  end
  else if looking_at st "@" then begin
    st.pos <- st.pos + 1;
    let test = if looking_at st "*" then (st.pos <- st.pos + 1; Any) else Name (read_name st) in
    prefix_for_abbreviation
    @ [ { axis = Attribute; test; predicates = parse_predicates st } ]
  end
  else begin
    (* Explicit axis? *)
    let save = st.pos in
    let axis, explicit =
      match peek st with
      | Some c when is_name_start c ->
          let name = read_name st in
          if looking_at st "::" then begin
            st.pos <- st.pos + 2;
            (axis_of_name save name, true)
          end
          else begin
            st.pos <- save;
            (default_axis, false)
          end
      | _ -> (default_axis, false)
    in
    let test =
      if looking_at st "*" then begin
        st.pos <- st.pos + 1;
        Any
      end
      else if looking_at_word st "text" && looking_at st "text()" then begin
        st.pos <- st.pos + 6;
        Text
      end
      else if looking_at_word st "node" && looking_at st "node()" then begin
        st.pos <- st.pos + 6;
        Node
      end
      else Name (read_name st)
    in
    let step = { axis; test; predicates = parse_predicates st } in
    (* [//axis::x] needs the descendant hop before the explicit axis. *)
    if explicit then prefix_for_abbreviation @ [ step ] else [ step ]
  end

and parse_predicates st =
  skip_spaces st;
  if looking_at st "[" then begin
    eat st "[";
    let e = parse_or st in
    skip_spaces st;
    eat st "]";
    e :: parse_predicates st
  end
  else []

and parse_or st =
  let left = parse_and st in
  skip_spaces st;
  if looking_at_word st "or" then begin
    st.pos <- st.pos + 2;
    Or (left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_cmp st in
  skip_spaces st;
  if looking_at_word st "and" then begin
    st.pos <- st.pos + 3;
    And (left, parse_and st)
  end
  else left

and parse_cmp st =
  let left = parse_primary st in
  skip_spaces st;
  if looking_at st "!=" then begin
    st.pos <- st.pos + 2;
    Not_equals (left, parse_primary st)
  end
  else if looking_at st "=" then begin
    st.pos <- st.pos + 1;
    Equals (left, parse_primary st)
  end
  else if looking_at st "<" then begin
    st.pos <- st.pos + 1;
    Less (left, parse_primary st)
  end
  else if looking_at st ">" then begin
    st.pos <- st.pos + 1;
    Greater (left, parse_primary st)
  end
  else left

and parse_primary st =
  skip_spaces st;
  match peek st with
  | None -> fail st.pos "unexpected end of expression"
  | Some '(' ->
      eat st "(";
      let e = parse_or st in
      skip_spaces st;
      eat st ")";
      e
  | Some ('"' | '\'') ->
      let q = Option.get (peek st) in
      st.pos <- st.pos + 1;
      let start = st.pos in
      (match String.index_from_opt st.src st.pos q with
      | Some close ->
          let s = String.sub st.src start (close - start) in
          st.pos <- close + 1;
          Literal s
      | None -> fail start "unterminated string literal")
  | Some ('0' .. '9') ->
      let start = st.pos in
      while
        st.pos < String.length st.src
        && (match st.src.[st.pos] with '0' .. '9' | '.' -> true | _ -> false)
      do
        st.pos <- st.pos + 1
      done;
      Number (float_of_string (String.sub st.src start (st.pos - start)))
  | Some _ ->
      if looking_at_word st "position" && looking_at st "position()" then begin
        st.pos <- st.pos + 10;
        Position
      end
      else if looking_at_word st "last" && looking_at st "last()" then begin
        st.pos <- st.pos + 6;
        Last
      end
      else if looking_at_word st "count" && looking_at st "count(" then begin
        st.pos <- st.pos + 6;
        let p = parse_path st in
        skip_spaces st;
        eat st ")";
        Count p
      end
      else if looking_at_word st "contains" && looking_at st "contains(" then begin
        st.pos <- st.pos + 9;
        let a = parse_primary st in
        skip_spaces st;
        eat st ",";
        let b = parse_primary st in
        skip_spaces st;
        eat st ")";
        Contains (a, b)
      end
      else if looking_at_word st "not" && looking_at st "not(" then begin
        st.pos <- st.pos + 4;
        let e = parse_or st in
        skip_spaces st;
        eat st ")";
        Not e
      end
      else Path (parse_path st)

let parse src =
  let st = { src; pos = 0 } in
  let p = parse_path st in
  skip_spaces st;
  if st.pos <> String.length src then fail st.pos "trailing input";
  p
