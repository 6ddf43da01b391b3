type config = Bm25 of { k1 : float; b : float } | Tf_idf

let default = Bm25 { k1 = 1.2; b = 0.75 }

type corpus = { doc_count : int; avg_element_length : float }

let idf ~doc_count ~df =
  let n = float_of_int (max doc_count 1) in
  let df = float_of_int (max df 0) in
  log (1.0 +. ((n -. df +. 0.5) /. (df +. 0.5)))

let score config ~corpus ~df ~tf ~element_length =
  if tf <= 0 then 0.0
  else begin
    let tf = float_of_int tf in
    let idf = idf ~doc_count:corpus.doc_count ~df in
    let len = float_of_int (max element_length 1) in
    let avg = Float.max corpus.avg_element_length 1.0 in
    match config with
    | Bm25 { k1; b } ->
        let norm = k1 *. ((1.0 -. b) +. (b *. (len /. avg))) in
        idf *. (tf *. (k1 +. 1.0) /. (tf +. norm))
    | Tf_idf -> idf *. (1.0 +. log tf) /. (1.0 +. log (len /. avg +. 1.0))
  end

let combine scores = List.fold_left ( +. ) 0.0 scores

