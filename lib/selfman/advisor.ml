module Rpl = Trex_topk.Rpl

type choice =
  | No_index
  | Use_erpl
  | Use_rpl

type plan = {
  decisions : (string * choice) list;
  bytes_used : int;
  expected_saving : float;
}

let choice_to_string = function
  | No_index -> "none"
  | Use_erpl -> "ERPL (Merge)"
  | Use_rpl -> "RPL (TA)"

let all_choices = [ Use_erpl; Use_rpl ]

(* A materializable list, identified across queries so sharing is
   accounted once. *)
module List_key = struct
  type t = Rpl.kind * string * int

  let compare = compare
end

module List_set = Set.Make (List_key)

let dedup_lists lists =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (key, _) ->
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    lists

let lists_of_choice (p : Cost.profile) choice =
  let conv kind lists =
    dedup_lists
      (List.map
         (fun ((l : Cost.list_id), bytes) -> ((kind, l.term, l.sid), bytes))
         lists)
  in
  match choice with
  | No_index -> []
  | Use_erpl -> conv Rpl.Erpl p.erpl_lists
  | Use_rpl -> conv Rpl.Rpl p.rpl_lists

let saving_of_choice p = function
  | No_index -> 0.0
  | Use_erpl -> Cost.saving_merge p
  | Use_rpl -> Cost.saving_ta p

let add_lists set lists =
  List.fold_left
    (fun (set, added) (key, bytes) ->
      if List_set.mem key set then (set, added)
      else (List_set.add key set, added + bytes))
    (set, 0) lists

let incremental_bytes set lists =
  List.fold_left
    (fun acc (key, bytes) -> if List_set.mem key set then acc else acc + bytes)
    0 lists

let decisions_of profiles table =
  List.map
    (fun (p : Cost.profile) ->
      (p.id, match Hashtbl.find_opt table p.id with Some c -> c | None -> No_index))
    profiles

let plan_of profiles table =
  let decisions = decisions_of profiles table in
  let set, bytes, saving =
    List.fold_left2
      (fun (set, bytes, saving) (p : Cost.profile) (_, choice) ->
        let set, added = add_lists set (lists_of_choice p choice) in
        (set, bytes + added, saving +. saving_of_choice p choice))
      (List_set.empty, 0, 0.0) profiles decisions
  in
  ignore set;
  { decisions; bytes_used = bytes; expected_saving = saving }

let plan_bytes profiles decisions =
  let table = Hashtbl.create 8 in
  List.iter (fun (id, c) -> Hashtbl.replace table id c) decisions;
  (plan_of profiles table).bytes_used

let plan_saving profiles decisions =
  let table = Hashtbl.create 8 in
  List.iter (fun (id, c) -> Hashtbl.replace table id c) decisions;
  (plan_of profiles table).expected_saving

(* Ratio-greedy alone can be arbitrarily far from optimal (a cheap
   high-ratio option can block a huge near-budget one), so the classic
   knapsack fallback applies: also consider every single option alone
   and return the better plan. This is what makes Theorem 4.2's
   2-approximation hold. *)
let best_single ~budget profiles =
  let best = ref None in
  List.iter
    (fun (p : Cost.profile) ->
      List.iter
        (fun choice ->
          let saving = saving_of_choice p choice in
          let _, bytes = add_lists List_set.empty (lists_of_choice p choice) in
          if saving > 0.0 && bytes <= budget then
            match !best with
            | Some (_, _, s) when s >= saving -> ()
            | Some _ | None -> best := Some (p.id, choice, saving))
        all_choices)
    profiles;
  let table = Hashtbl.create 1 in
  (match !best with
  | Some (id, choice, _) -> Hashtbl.replace table id choice
  | None -> ());
  plan_of profiles table

(* The multiple-choice knapsack greedy: each step takes the move with
   the best ratio of incremental saving to incremental bytes among those
   that fit — a query without an index takes one of its options, and a
   query holding one may switch to its other. Without the switch, a
   query whose cheap option was taken first could never reach its
   better one, and the 2-approximation fails. Bytes are those of the
   union of the chosen lists, so a switch frees the lists only the old
   option used. A move that frees bytes or costs none dominates. Every
   move raises the saving, so the loop ends. *)
let greedy ~budget profiles =
  let chosen = Hashtbl.create 8 in
  let used = ref 0 in
  let finished = ref false in
  while not !finished do
    let best = ref None in
    List.iter
      (fun (p : Cost.profile) ->
        let current = Option.value (Hashtbl.find_opt chosen p.id) ~default:No_index in
        List.iter
          (fun choice ->
            let gain = saving_of_choice p choice -. saving_of_choice p current in
            if choice <> current && gain > 0.0 then begin
              Hashtbl.replace chosen p.id choice;
              let bytes = (plan_of profiles chosen).bytes_used in
              Hashtbl.replace chosen p.id current;
              if bytes <= budget then begin
                let cost = bytes - !used in
                let ratio = if cost <= 0 then infinity else gain /. float_of_int cost in
                match !best with
                | Some (_, _, _, best_ratio) when best_ratio >= ratio -> ()
                | Some _ | None -> best := Some (p, choice, bytes, ratio)
              end
            end)
          all_choices)
      profiles;
    match !best with
    | None -> finished := true
    | Some (p, choice, bytes, _) ->
        Hashtbl.replace chosen p.id choice;
        used := bytes
  done;
  let ratio_plan = plan_of profiles chosen in
  let single_plan = best_single ~budget profiles in
  if single_plan.expected_saving > ratio_plan.expected_saving then single_plan
  else ratio_plan

let branch_and_bound ~budget profiles =
  let arr = Array.of_list profiles in
  let l = Array.length arr in
  (* Optimistic completion: take every remaining query's best option for
     free. *)
  let tail_bound = Array.make (l + 1) 0.0 in
  for i = l - 1 downto 0 do
    tail_bound.(i) <-
      tail_bound.(i + 1)
      +. Float.max (Cost.saving_merge arr.(i)) (Cost.saving_ta arr.(i))
  done;
  let best_saving = ref (-1.0) in
  let best_assignment = ref [||] in
  let current = Array.make l No_index in
  let rec explore i set used saving =
    if saving +. tail_bound.(i) <= !best_saving then ()
    else if i = l then begin
      if saving > !best_saving then begin
        best_saving := saving;
        best_assignment := Array.copy current
      end
    end
    else
      List.iter
        (fun choice ->
          let cost = incremental_bytes set (lists_of_choice arr.(i) choice) in
          if used + cost <= budget then begin
            let set', _ = add_lists set (lists_of_choice arr.(i) choice) in
            current.(i) <- choice;
            explore (i + 1) set' (used + cost) (saving +. saving_of_choice arr.(i) choice);
            current.(i) <- No_index
          end)
        [ Use_rpl; Use_erpl; No_index ]
  in
  explore 0 List_set.empty 0 0.0;
  let table = Hashtbl.create 8 in
  Array.iteri (fun i (p : Cost.profile) -> Hashtbl.replace table p.id !best_assignment.(i)) arr;
  plan_of profiles table

let apply index ~scoring ~workload ?(profiles = []) plan =
  (* Each selected query's lists, translated against the index now. *)
  let builds =
    List.filter_map
      (fun (id, choice) ->
        match (choice, Workload.find workload id) with
        | No_index, _ -> None
        | _, None -> invalid_arg (Printf.sprintf "Advisor.apply: unknown query %s" id)
        | (Use_erpl | Use_rpl), Some q ->
            let kind = if choice = Use_erpl then Rpl.Erpl else Rpl.Rpl in
            let rpl_prefix =
              if choice = Use_rpl then
                List.find_opt (fun (p : Cost.profile) -> p.id = id) profiles
                |> Fun.flip Option.bind (fun (p : Cost.profile) -> p.rpl_prefix)
              else None
            in
            let sids, terms = Workload.translate index q.nexi in
            Some (kind, sids, terms, rpl_prefix))
      plan.decisions
  in
  (* A stored list stays only when the plan selects it complete and it
     is complete; a list the plan wants as a prefix is rebuilt at the
     plan's depth. *)
  let wanted = Hashtbl.create 64 in
  List.iter
    (fun (kind, sids, terms, rpl_prefix) ->
      List.iter
        (fun term ->
          List.iter (fun sid -> Hashtbl.replace wanted (kind, term, sid) rpl_prefix) sids)
        terms)
    builds;
  let keep kind term sid =
    Hashtbl.find_opt wanted (kind, term, sid) = Some None
    && not (Rpl.list_truncated index kind ~term ~sid)
  in
  (* One redo-logged op drops the rest; then each selected query's
     build is its own. A crash between them leaves every list whole or
     gone, and never touches a list the plan keeps. *)
  Rpl.drop_lists index
    (List.concat_map
       (fun kind ->
         List.filter_map
           (fun (term, sid, _, _) ->
             if keep kind term sid then None else Some (kind, term, sid))
           (Rpl.catalog index kind))
       [ Rpl.Rpl; Rpl.Erpl ]);
  List.iter
    (fun (kind, sids, terms, rpl_prefix) ->
      ignore (Rpl.build index ~scoring ~sids ~terms ~kinds:[ kind ] ?rpl_prefix ()))
    builds
