module Env = Trex_storage.Env
module Summary = Trex_summary.Summary
module Alias = Trex_summary.Alias
module Pattern = Trex_summary.Pattern
module Index = Trex_invindex.Index
module Types = Trex_invindex.Types
module Scorer = Trex_scoring.Scorer
module Ast = Trex_nexi.Ast
module Nexi_parser = Trex_nexi.Parser
module Translate = Trex_nexi.Translate
module Answer = Trex_topk.Answer
module Era = Trex_topk.Era
module Ta = Trex_topk.Ta
module Merge = Trex_topk.Merge
module Rpl = Trex_topk.Rpl
module Strategy = Trex_topk.Strategy
module Workload = Trex_selfman.Workload
module Cost = Trex_selfman.Cost
module Advisor = Trex_selfman.Advisor
module Autopilot = Trex_selfman.Autopilot
module Obs = Trex_obs
module Guard = Trex_resilience.Guard
module Breaker = Trex_resilience.Breaker

type t = { index : Index.t }

let build ~env ?(summary_criterion = Summary.Incoming) ?(alias = Alias.identity)
    ?analyzer ?(scoring = Scorer.default) docs =
  let summary = Summary.create ~alias summary_criterion in
  { index = Index.build ~env ~summary ?analyzer ~scoring docs }

let attach ~env () = { index = Index.attach env }

let index t = t.index
let summary t = Index.summary t.index
let scoring t = Index.scoring t.index

(* ---- evaluation ---- *)

let parse _t nexi = Nexi_parser.parse nexi

let translate t query =
  Translate.translate ~summary:(summary t)
    ~normalize:(Index.normalize_term t.index)
    query

type outcome = {
  translation : Translate.t;
  strategy : Strategy.outcome;
  k : int;
  degraded : bool;
  fallbacks : Strategy.failover list;
  pages_used : int;
}

let mk_guard ?deadline_ms ?page_budget () =
  match (deadline_ms, page_budget) with
  | None, None -> None
  | _ -> Some (Guard.create ?deadline_ms ?page_budget ())

let pages_used = function Some g -> Guard.pages_used g | None -> 0

let evaluate t ~k ?method_ ~strict ~floor ?deadline_ms ?page_budget ast =
  let translation = Obs.Span.with_ ~name:"translate" (fun () -> translate t ast) in
  (* Strict answers lie in the target extent, so only its lists are
     read; an element's score does not depend on which extents are
     evaluated beside it, so the strict answers score as the vague
     ones do. *)
  let sids =
    if strict then List.sort_uniq compare translation.Translate.target_sids
    else Translate.all_sids translation
  in
  let terms = Translate.all_terms translation in
  (* With no matching extent or no query term there is nothing to
     read: ERA answers that empty retrieval without touching an index,
     where TA and Merge would need lists that cannot exist. *)
  let method_ = if sids = [] || terms = [] then Some Strategy.Era_method else method_ in
  let guard = mk_guard ?deadline_ms ?page_budget () in
  let strategy, fallbacks =
    Strategy.evaluate_resilient t.index ~scoring:(scoring t) ~sids ~terms ~k
      ?guard ~floor ?method_ ()
  in
  (* Entries at or below the floor cannot enter the caller's top k.
     Unfloored queries skip the pass. *)
  let answers =
    if floor <= 0.0 then strategy.Strategy.answers
    else
      List.filter (fun (e : Answer.entry) -> e.score > floor) strategy.Strategy.answers
  in
  (* ERA and Merge compute all answers; present a consistent top-k. *)
  let strategy = { strategy with Strategy.answers = Answer.top_k answers k } in
  let degraded = strategy.Strategy.degraded in
  { translation; strategy; k; degraded; fallbacks; pages_used = pages_used guard }

(* The posed query's one journal record, written once its root span
   has closed so the span summary covers the whole query. *)
let journal_outcome t started ~label ~strategy o =
  Option.iter
    (fun started ->
      Obs.Journal.finish_query started
        (Env.journal (Index.env t.index))
        ~label ~strategy ~k:o.k ~degraded:o.degraded ~fallbacks:(List.length o.fallbacks) ())
    started

let query t ?(k = 10) ?method_ ?(strict = false) ?deadline_ms ?page_budget nexi =
  let started = Obs.Journal.start_query () in
  let o =
    Obs.Span.with_ ~name:"query" @@ fun () ->
    let ast = Obs.Span.with_ ~name:"parse" (fun () -> parse t nexi) in
    evaluate t ~k ?method_ ~strict ~floor:0.0 ?deadline_ms ?page_budget ast
  in
  journal_outcome t started ~label:nexi
    ~strategy:(Strategy.method_to_string o.strategy.Strategy.method_used)
    o;
  o

(* Unique extent element of [sid] containing [inner], if any: extents
   are nesting-free, so at most one candidate exists and a single B+tree
   seek finds it. *)
let containing_element index sid (inner : Types.element) =
  let it = Index.Element_iter.create index sid in
  let candidate =
    Index.Element_iter.next_element_after it
      { Types.docid = inner.docid; offset = Types.start_pos inner }
  in
  if
    (not (Types.is_dummy candidate))
    && candidate.Types.docid = inner.docid
    && Types.start_pos candidate <= Types.start_pos inner
    && inner.endpos <= candidate.Types.endpos
  then Some candidate
  else None

(* Does the element's text contain the normalized [phrase] as adjacent
   tokens? The element source span is re-parsed so tag names never count
   as tokens. *)
let element_has_phrase t (e : Types.element) phrase =
  match Index.element_text t.index e with
  | None -> false
  | Some fragment -> (
      match Trex_xml.Dom.parse fragment with
      | exception Trex_xml.Sax.Malformed _ -> false
      | doc ->
          let tokens =
            Trex_text.Analyzer.terms (Index.analyzer t.index)
              (Trex_xml.Dom.text_content doc.root)
          in
          let phrase = Array.of_list phrase in
          let m = Array.length phrase in
          let tokens = Array.of_list tokens in
          let n = Array.length tokens in
          let rec scan i =
            if i + m > n then false
            else begin
              let rec matches j = j >= m || (tokens.(i + j) = phrase.(j) && matches (j + 1)) in
              matches 0 || scan (i + 1)
            end
          in
          m > 0 && scan 0)

let evaluate_structured t ~k ?deadline_ms ?page_budget nexi =
  let translation = translate t (parse t nexi) in
  let guard = mk_guard ?deadline_ms ?page_budget () in
  let degraded = ref false in
  let target_sids = translation.Translate.target_sids in
  let candidates : (int * int, Types.element * float) Hashtbl.t = Hashtbl.create 64 in
  let add (e : Types.element) score =
    let key = (e.docid, e.endpos) in
    match Hashtbl.find_opt candidates key with
    | Some (e0, s0) -> Hashtbl.replace candidates key (e0, s0 +. score)
    | None -> Hashtbl.add candidates key (e, score)
  in
  let clock = Trex_util.Stopclock.create () in
  let total_entries = ref 0 in
  List.iter
    (fun (u : Translate.unit_) ->
      if u.terms <> [] && u.sids <> [] then begin
        let results, stats = Era.run ?guard t.index ~sids:u.sids ~terms:u.terms in
        total_entries := !total_entries + stats.Era.positions_scanned;
        if stats.Era.degraded then degraded := true;
        (* +keywords are conjunctive: every required term must occur. *)
        let results =
          if u.required_terms = [] then results
          else begin
            let required_idx =
              List.mapi (fun i term -> (term, i)) u.terms
              |> List.filter (fun (term, _) -> List.mem term u.required_terms)
              |> List.map snd
            in
            List.filter
              (fun (r : Era.result) -> List.for_all (fun i -> r.tf.(i) > 0) required_idx)
              results
          end
        in
        let answers =
          Era.score_results t.index ~scoring:(scoring t) ~terms:u.terms results
        in
        (* -keywords exclude: drop unit hits containing an excluded term. *)
        let answers =
          if u.excluded_terms = [] then answers
          else begin
            (* Exclusion lists must be complete — an abbreviated banned
               set would let excluded elements through, which is wrong,
               not degraded. They run unguarded. *)
            let excluded, _ = Era.run t.index ~sids:u.sids ~terms:u.excluded_terms in
            let banned = Hashtbl.create 16 in
            List.iter
              (fun (r : Era.result) ->
                Hashtbl.replace banned
                  (r.element.Types.docid, r.element.Types.endpos)
                  ())
              excluded;
            List.filter
              (fun (e : Answer.entry) ->
                not (Hashtbl.mem banned (e.element.Types.docid, e.element.Types.endpos)))
              answers
          end
        in
        (* Quoted phrases must occur verbatim (adjacent tokens). *)
        let answers =
          if u.phrases = [] then answers
          else
            List.filter
              (fun (e : Answer.entry) ->
                List.for_all (fun p -> element_has_phrase t e.element p) u.phrases)
              answers
        in
        let on_target = u.pattern = translation.Translate.target_pattern in
        List.iter
          (fun (entry : Answer.entry) ->
            if on_target then add entry.element entry.score
            else
              (* Support path: flow the score up to the enclosing
                 element(s) of the target extent. *)
              List.iter
                (fun sid ->
                  match containing_element t.index sid entry.element with
                  | Some ancestor -> add ancestor entry.score
                  | None ->
                      (* The support element may itself lie in the
                         target extent (e.g. //sec[about(.//sec, ...)]
                         degenerate cases). *)
                      if entry.element.Types.sid = sid then
                        add entry.element entry.score)
                target_sids)
          answers
      end)
    translation.Translate.units;
  let answers =
    Hashtbl.fold (fun _ (e, s) acc -> (e, s) :: acc) candidates []
    |> Answer.of_unsorted
  in
  (if !degraded then
     let m = Obs.Metrics.counter "resilience.degraded_runs" in
     Obs.Metrics.incr m);
  let strategy =
    {
      Strategy.method_used = Strategy.Era_method;
      answers = Answer.top_k answers k;
      elapsed_seconds = Trex_util.Stopclock.elapsed clock;
      entries_read = !total_entries;
      degraded = !degraded;
      detail = Printf.sprintf "structured: %d units" (List.length translation.Translate.units);
    }
  in
  let degraded = !degraded in
  { translation; strategy; k; degraded; fallbacks = []; pages_used = pages_used guard }

let query_structured t ?(k = 10) ?deadline_ms ?page_budget nexi =
  let started = Obs.Journal.start_query () in
  let o =
    Obs.Span.with_ ~name:"query_structured" @@ fun () ->
    evaluate_structured t ~k ?deadline_ms ?page_budget nexi
  in
  (* The structured evaluator drives ERA per about() path, so its
     record names the synthetic strategy "structured". *)
  journal_outcome t started ~label:nexi ~strategy:"structured" o;
  o

(* ---- index management ---- *)

let add_document t ~name ~xml =
  (* A new document moves the collection statistics every score
     depends on (document count, mean element length), so every
     materialized list goes stale, not only those of the document's own
     terms. The drops become the leading steps of the document's
     redo-logged manifest operation, so they land atomically with the
     base-table writes — a crash can never leave the document visible
     with stale lists still servable, or vice versa. *)
  let invalidation _doc_terms =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun (term, sid, _, _) -> Rpl.drop_actions kind ~term ~sid)
          (Rpl.catalog t.index kind))
      [ Rpl.Rpl; Rpl.Erpl ]
  in
  let docid, _terms = Index.add_document t.index ~invalidation ~name ~xml in
  docid

let materialize t ?(kinds = [ Rpl.Rpl; Rpl.Erpl ]) ?rpl_prefix nexi =
  Obs.Span.with_ ~name:"materialize" @@ fun () ->
  let translation = translate t (parse t nexi) in
  Rpl.build t.index ~scoring:(scoring t)
    ~sids:(Translate.all_sids translation)
    ~terms:(Translate.all_terms translation)
    ~kinds ?rpl_prefix ()

let advise t ~workload ~budget ?(optimal = false) ?(runs = 3) () =
  (* Measurement only adds the lists it lacks (a stored list is
     reused), so dropping what was not there before leaves the
     environment's lists as it found them. *)
  let lists () =
    List.concat_map
      (fun kind -> List.map (fun (term, sid, _, _) -> (kind, term, sid)) (Rpl.catalog t.index kind))
      [ Rpl.Rpl; Rpl.Erpl ]
  in
  let before = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace before l ()) (lists ());
  let profiles =
    List.map
      (fun q -> Cost.measure t.index ~scoring:(scoring t) ~runs q)
      (Workload.queries workload)
  in
  Rpl.drop_lists t.index (List.filter (fun l -> not (Hashtbl.mem before l)) (lists ()));
  let plan =
    if optimal then Advisor.branch_and_bound ~budget profiles
    else Advisor.greedy ~budget profiles
  in
  (plan, profiles)

let vacuum t =
  (* Dropping lists leaves dead pages behind (B+trees never shrink);
     compaction rebuilds the redundant-index tables at their live size
     so the disk budget the advisor reasons about is what the disk
     actually uses. Each compaction is atomic (temp file + rename), so
     every table is either the old or the new file. *)
  let env = Index.env t.index in
  List.iter (Env.compact_table env) [ "rpls"; "erpls"; "rpl_catalog"; "erpl_catalog" ]

(* ---- inspection ---- *)

type table_sizes = {
  elements_bytes : int;
  postings_bytes : int;
  rpls_bytes : int;
  erpls_bytes : int;
}

let table_sizes t =
  {
    elements_bytes = Index.elements_bytes t.index;
    postings_bytes = Index.postings_bytes t.index;
    rpls_bytes = Env.table_bytes (Index.env t.index) "rpls";
    erpls_bytes = Env.table_bytes (Index.env t.index) "erpls";
  }

type hit = {
  rank : int;
  score : float;
  element : Types.element;
  doc_name : string;
  xpath : string;
  snippet : string;
}

(* Strip tags and squeeze whitespace out of an XML fragment for a
   one-line snippet. *)
let snippet_of_fragment fragment =
  let b = Buffer.create 120 in
  let in_tag = ref false in
  let last_space = ref true in
  String.iter
    (fun c ->
      if Buffer.length b < 100 then
        match c with
        | '<' -> in_tag := true
        | '>' -> in_tag := false
        | ' ' | '\t' | '\n' | '\r' ->
            if (not !in_tag) && not !last_space then begin
              Buffer.add_char b ' ';
              last_space := true
            end
        | c ->
            if not !in_tag then begin
              Buffer.add_char b c;
              last_space := false
            end)
    fragment;
  let s = Buffer.contents b in
  if String.length s >= 100 then s ^ "..." else s

let hits t ?(limit = max_int) answers =
  let limited = if limit = max_int then answers else Answer.top_k answers limit in
  List.mapi
    (fun i (entry : Answer.entry) ->
      let e = entry.element in
      let doc_name =
        match Index.document t.index e.Types.docid with
        | Some row -> row.Trex_invindex.Tables.Documents.name
        | None -> Printf.sprintf "doc-%d" e.Types.docid
      in
      let xpath =
        if e.Types.sid > 0 then Summary.xpath_of_sid (summary t) e.Types.sid
        else "?"
      in
      let snippet =
        match Index.element_text t.index e with
        | Some fragment -> snippet_of_fragment fragment
        | None -> ""
      in
      { rank = i + 1; score = entry.score; element = e; doc_name; xpath; snippet })
    limited
