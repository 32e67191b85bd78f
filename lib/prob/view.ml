module Pred = Acq_plan.Predicate

type t = {
  data : Acq_data.Dataset.t;
  index : Index.t;
  bits : int array;
  size : int;
}

let of_dataset data =
  let n = Acq_data.Dataset.nrows data in
  { data; index = Index.build data; bits = Bits.full n; size = n }

let dataset t = t.data
let size t = t.size
let is_empty t = t.size = 0

let with_bits t bits =
  let size = Array.fold_left (fun c x -> c + Bits.popcount x) 0 bits in
  { t with bits; size }

let select t pos =
  let out = Array.make (Array.length t.bits) 0 in
  let k = ref 0 and p = ref 0 in
  let np = Array.length pos in
  Bits.iter t.bits (fun r ->
      if !k < np && pos.(!k) = !p then begin
        Bits.set out r;
        incr k
      end;
      incr p);
  with_bits t out

let filter t keep =
  let out = Array.make (Array.length t.bits) 0 in
  Bits.iter t.bits (fun r -> if keep r then Bits.set out r);
  with_bits t out

let narrow t m ~inside =
  if t.size = 0 then t
  else
    let bits, size = Bits.inter t.bits m ~inside in
    { t with bits; size }

let count t m ~inside = if t.size = 0 then 0 else Bits.count t.bits m ~inside

let range_mask t attr (r : Acq_plan.Range.t) =
  Index.mask t.index ~attr ~lo:r.lo ~hi:r.hi

let pred_mask t (p : Pred.t) = Index.mask t.index ~attr:p.attr ~lo:p.lo ~hi:p.hi

(* Rows where [p] evaluates to [truth] lie inside its band exactly
   when polarity and truth agree. *)
let pred_inside (p : Pred.t) truth = (p.polarity = Pred.Inside) = truth

let restrict_range t ~attr r = narrow t (range_mask t attr r) ~inside:true

let restrict_pred t p truth =
  narrow t (pred_mask t p) ~inside:(pred_inside p truth)

let histogram t ~attr = Index.histogram t.index ~attr t.bits
let range_count t ~attr r = count t (range_mask t attr r) ~inside:true

let ratio t c = if t.size = 0 then 0.0 else float_of_int c /. float_of_int t.size

let range_prob t ~attr r = ratio t (range_count t ~attr r)

let pred_prob t p =
  ratio t (count t (pred_mask t p) ~inside:(pred_inside p true))

let pattern_counts t preds =
  let m = Array.length preds in
  if m > 20 then invalid_arg "View.pattern_counts: too many predicates";
  if t.size = 0 then Array.make (1 lsl m) 0
  else
    Bits.pattern_counts t.bits
      (Array.map (fun p -> (pred_mask t p, pred_inside p true)) preds)

let iter t f = Bits.iter t.bits f
