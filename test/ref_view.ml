(* Row-scan reference view: the empirical estimator as a plain row-id
   array, rescanned through [Dataset.get] on every query. It is the
   oracle the packed bitset {!Acq_prob.View} is checked against, count
   for count, in test_prob's differential and test_backend's planning
   differential. Keep it obviously correct rather than fast. *)

type t = { data : Acq_data.Dataset.t; rows : int array }

let of_dataset data =
  { data; rows = Array.init (Acq_data.Dataset.nrows data) (fun i -> i) }

let of_rows data rows = { data; rows }

let dataset t = t.data

let row_id t i = t.rows.(i)

let size t = Array.length t.rows

let is_empty t = Array.length t.rows = 0

let filter t keep =
  let n = Array.length t.rows in
  let buf = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let r = t.rows.(i) in
    if keep r then begin
      buf.(!k) <- r;
      incr k
    end
  done;
  { data = t.data; rows = Array.sub buf 0 !k }

let restrict_range t ~attr range =
  filter t (fun r ->
      Acq_plan.Range.contains range (Acq_data.Dataset.get t.data r attr))

let restrict_pred t (p : Acq_plan.Predicate.t) truth =
  filter t (fun r ->
      Acq_plan.Predicate.eval p (Acq_data.Dataset.get t.data r p.attr) = truth)

let histogram t ~attr =
  let schema = Acq_data.Dataset.schema t.data in
  let k = (Acq_data.Schema.attr schema attr).domain in
  let counts = Array.make k 0 in
  Array.iter
    (fun r ->
      let v = Acq_data.Dataset.get t.data r attr in
      counts.(v) <- counts.(v) + 1)
    t.rows;
  counts

let range_count t ~attr range =
  let c = ref 0 in
  Array.iter
    (fun r ->
      if Acq_plan.Range.contains range (Acq_data.Dataset.get t.data r attr)
      then incr c)
    t.rows;
  !c

let range_prob t ~attr range =
  let n = size t in
  if n = 0 then 0.0
  else float_of_int (range_count t ~attr range) /. float_of_int n

let pred_prob t p =
  let n = size t in
  if n = 0 then 0.0
  else begin
    let c = ref 0 in
    Array.iter
      (fun r ->
        if Acq_plan.Predicate.eval p (Acq_data.Dataset.get t.data r p.attr)
        then incr c)
      t.rows;
    float_of_int !c /. float_of_int n
  end

let pattern_counts t preds =
  let m = Array.length preds in
  if m > 20 then invalid_arg "View.pattern_counts: too many predicates";
  let counts = Array.make (1 lsl m) 0 in
  Array.iter
    (fun r ->
      let mask = ref 0 in
      for j = 0 to m - 1 do
        let p = preds.(j) in
        if Acq_plan.Predicate.eval p (Acq_data.Dataset.get t.data r p.attr)
        then mask := !mask lor (1 lsl j)
      done;
      counts.(!mask) <- counts.(!mask) + 1)
    t.rows;
  counts

let iter t f = Array.iter f t.rows

(* The closure-record estimator over a reference view, field for field
   the empirical estimator's definition. *)
let rec estimator view : Acq_prob.Estimator.t =
  let normalize counts =
    let total = float_of_int (size view) in
    if total = 0.0 then Array.map (fun _ -> 0.0) counts
    else Array.map (fun c -> float_of_int c /. total) counts
  in
  {
    weight = float_of_int (size view);
    range_prob = (fun attr r -> range_prob view ~attr r);
    value_probs = (fun attr -> normalize (histogram view ~attr));
    pred_prob = (fun p -> pred_prob view p);
    pattern_probs = (fun preds -> normalize (pattern_counts view preds));
    restrict_range = (fun attr r -> estimator (restrict_range view ~attr r));
    restrict_pred = (fun p truth -> estimator (restrict_pred view p truth));
  }
