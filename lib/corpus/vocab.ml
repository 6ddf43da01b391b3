module Prng = Trex_util.Prng
module Zipf = Trex_util.Zipf

(* Paper query terms and the Zipf rank each is planted at. Low rank =
   frequent. The classes mirror the paper's answer counts: Q270's terms
   (introduction/information/retrieval) are common, Q233's
   (synthesizers) rare. *)
let planted =
  [
    ("information", 25); ("model", 30); ("state", 35); ("introduction", 40);
    ("space", 45); ("case", 50); ("study", 55); ("retrieval", 60);
    ("algorithm", 70); ("evaluation", 80); ("query", 90); ("xml", 100);
    ("checking", 120); ("music", 150); ("verification", 300);
    (* "code" sits low so Q203's answer count stays small relative to
       Q270's, as in the paper's Table 1. *)
    ("code", 520);
    ("painting", 350); ("german", 370); ("french", 380); ("genetic", 400);
    ("italian", 450); ("explosion", 500); ("ontologies", 650);
    ("signing", 700); ("renaissance", 800); ("synthesizers", 900);
    ("flemish", 1000);
  ]

type topic = { name : string; words : string list }

let topic_specs =
  [
    ("semantic-web", [ "ontologies"; "case"; "study"; "xml"; "query" ]);
    ("xml-db", [ "xml"; "query"; "evaluation"; "retrieval"; "model" ]);
    ("security", [ "code"; "signing"; "verification"; "state" ]);
    ( "verification",
      [ "model"; "checking"; "state"; "space"; "explosion"; "verification" ] );
    ("ir", [ "introduction"; "information"; "retrieval"; "evaluation"; "query" ]);
    ("audio", [ "synthesizers"; "music"; "information" ]);
    ("evolutionary", [ "genetic"; "algorithm"; "space"; "evaluation" ]);
    ( "art",
      [ "renaissance"; "painting"; "italian"; "flemish"; "french"; "german" ] );
    ("systems", [ "code"; "state"; "model"; "information" ]);
    ("theory", [ "algorithm"; "space"; "case"; "model" ]);
  ]

type t = { words : string array; zipf : Zipf.t; topics : topic list }

let vowels = [| "a"; "e"; "i"; "o"; "u"; "ai"; "ou" |]

let consonants =
  [| "b"; "c"; "d"; "f"; "g"; "h"; "j"; "k"; "l"; "m"; "n"; "p"; "qu"; "r";
     "s"; "t"; "v"; "w"; "x"; "z"; "st"; "tr"; "pl"; "br" |]

let pseudo_word rng =
  let syllables = 2 + Prng.int rng 3 in
  let b = Buffer.create 12 in
  for _ = 1 to syllables do
    Buffer.add_string b (Prng.pick rng consonants);
    Buffer.add_string b (Prng.pick rng vowels)
  done;
  Buffer.contents b

let create ?(size = 1500) ~seed () =
  let max_rank = List.fold_left (fun m (_, r) -> max m r) 0 planted in
  if size <= max_rank then
    invalid_arg
      (Printf.sprintf "Vocab.create: size %d must exceed highest planted rank %d"
         size max_rank);
  let rng = Prng.create seed in
  let words = Array.make size "" in
  List.iter (fun (w, rank) -> words.(rank) <- w) planted;
  let seen = Hashtbl.create size in
  List.iter (fun (w, _) -> Hashtbl.add seen w ()) planted;
  for i = 0 to size - 1 do
    if words.(i) = "" then begin
      let rec fresh () =
        let w = pseudo_word rng in
        if Hashtbl.mem seen w then fresh () else w
      in
      let w = fresh () in
      Hashtbl.add seen w ();
      words.(i) <- w
    end
  done;
  let topics = List.map (fun (name, words) -> { name; words }) topic_specs in
  { words; zipf = Zipf.create ~exponent:1.05 size; topics }

let size t = Array.length t.words
let sample t rng = t.words.(Zipf.sample t.zipf rng)

let topics t = t.topics
