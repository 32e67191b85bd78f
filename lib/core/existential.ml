module V = Acq_prob.View
module R = Acq_plan.Range
module Pred = Acq_plan.Predicate

type query = {
  schema : Acq_data.Schema.t;
  groups : Acq_plan.Predicate.t array array;
}

let query schema groups =
  if groups = [] then invalid_arg "Existential.query: no groups";
  let domains = Acq_data.Schema.domains schema in
  List.iter
    (fun g ->
      if g = [] then invalid_arg "Existential.query: empty group";
      List.iter
        (fun (p : Pred.t) ->
          if p.attr >= Array.length domains || p.hi >= domains.(p.attr) then
            invalid_arg "Existential.query: predicate out of schema")
        g)
    groups;
  { schema; groups = Array.of_list (List.map Array.of_list groups) }

let eval q tuple =
  Array.exists
    (fun group -> Array.for_all (fun p -> Pred.eval_tuple p tuple) group)
    q.groups

type plan =
  | Seq of { group_order : int array; inner : int array array }
  | Cond of { attr : int; threshold : int; low : plan; high : plan }

type outcome = { verdict : bool; cost : float; acquired : int list }

let run q ~costs plan ~lookup =
  let n = Array.length costs in
  let acquired = Array.make n false in
  let order = ref [] in
  let cost = ref 0.0 in
  let touch attr =
    if not acquired.(attr) then begin
      acquired.(attr) <- true;
      cost := !cost +. costs.(attr);
      order := attr :: !order
    end;
    lookup attr
  in
  let eval_group g inner_order =
    Array.for_all
      (fun j ->
        let p = q.groups.(g).(j) in
        Pred.eval p (touch p.Pred.attr))
      inner_order
  in
  let rec exec = function
    | Seq { group_order; inner } ->
        let rec probe i =
          i < Array.length group_order
          &&
          let g = group_order.(i) in
          if eval_group g inner.(g) then true else probe (i + 1)
        in
        probe 0
    | Cond { attr; threshold; low; high } ->
        if touch attr >= threshold then exec high else exec low
  in
  let verdict = exec plan in
  { verdict; cost = !cost; acquired = List.rev !order }

let average_cost q ~costs plan ds =
  let n = Acq_data.Dataset.nrows ds in
  if n = 0 then 0.0
  else begin
    let total = ref 0.0 in
    for r = 0 to n - 1 do
      let o = run q ~costs plan ~lookup:(fun a -> Acq_data.Dataset.get ds r a) in
      total := !total +. o.cost
    done;
    !total /. float_of_int n
  end

let consistent q ~costs plan ds =
  let ok = ref true in
  Acq_data.Dataset.iter_rows ds (fun r ->
      let o = run q ~costs plan ~lookup:(fun a -> Acq_data.Dataset.get ds r a) in
      if o.verdict <> eval q (Acq_data.Dataset.row ds r) then ok := false);
  !ok

(* ------------------------------------------------------------------ *)
(* Cost estimation on a view. [acquired] marks attributes already paid
   for on this path. *)

let group_attrs group =
  Array.to_list group
  |> List.map (fun (p : Pred.t) -> p.Pred.attr)
  |> List.sort_uniq compare

(* Fail-fast inner ordering of one group's predicates on a view,
   conditioning each step on the previous predicates passing. Returns
   the order (indices into the group), the expected evaluation cost,
   and P(group satisfied). *)
let inner_order_on group ~costs ~acquired view =
  let m = Array.length group in
  let taken = Array.make m false in
  let paid = Array.copy acquired in
  let order = ref [] in
  let cost = ref 0.0 and reach = ref 1.0 in
  let v = ref view in
  for _ = 1 to m do
    let best = ref (-1) and best_rank = ref infinity in
    for j = 0 to m - 1 do
      if not taken.(j) then begin
        let p = group.(j) in
        let pass = V.pred_prob !v p in
        let atomic = if paid.(p.Pred.attr) then 0.0 else costs.(p.Pred.attr) in
        let rank = if pass >= 1.0 then infinity else atomic /. (1.0 -. pass) in
        if rank < !best_rank || !best < 0 then begin
          best := j;
          best_rank := rank
        end
      end
    done;
    let j = !best in
    let p = group.(j) in
    taken.(j) <- true;
    let atomic = if paid.(p.Pred.attr) then 0.0 else costs.(p.Pred.attr) in
    cost := !cost +. (!reach *. atomic);
    let pass = V.pred_prob !v p in
    reach := !reach *. pass;
    paid.(p.Pred.attr) <- true;
    order := j :: !order;
    if pass > 0.0 then v := V.restrict_pred !v p true
  done;
  (Array.of_list (List.rev !order), !cost, !reach)

(* Restrict a view to rows where the group's conjunction fails. *)
let restrict_group_fails view group =
  let ds = V.dataset view in
  V.filter view (fun r ->
      not
        (Array.for_all
           (fun (p : Pred.t) ->
             Pred.eval p (Acq_data.Dataset.get ds r p.Pred.attr))
           group))

(* Greedy group ordering: next group minimizes expected-cost /
   P(success), conditioned (when [conditioned]) on every previous
   group having failed. *)
let order_groups q ~costs ~conditioned view0 =
  let ng = Array.length q.groups in
  let taken = Array.make ng false in
  let acquired = Array.make (Array.length costs) false in
  let inner = Array.make ng [||] in
  let order = ref [] in
  let view = ref view0 in
  for _ = 1 to ng do
    let best = ref (-1) and best_rank = ref infinity in
    let best_inner = ref [||] in
    for g = 0 to ng - 1 do
      if not taken.(g) then begin
        let io, ecost, p_succ = inner_order_on q.groups.(g) ~costs ~acquired !view in
        let rank = if p_succ <= 0.0 then infinity else ecost /. p_succ in
        if rank < !best_rank || !best < 0 then begin
          best := g;
          best_rank := rank;
          best_inner := io
        end
      end
    done;
    let g = !best in
    taken.(g) <- true;
    inner.(g) <- !best_inner;
    order := g :: !order;
    List.iter (fun a -> acquired.(a) <- true) (group_attrs q.groups.(g));
    if conditioned then view := restrict_group_fails !view q.groups.(g)
  done;
  (* Groups never ranked (p_succ = 0 everywhere) still need inner
     orders for runtime correctness. *)
  Array.iteri
    (fun g io ->
      if Array.length io = 0 then
        inner.(g) <- Array.init (Array.length q.groups.(g)) (fun j -> j))
    inner;
  Seq { group_order = Array.of_list (List.rev !order); inner }

let naive_plan q ~costs ds =
  order_groups q ~costs ~conditioned:false (V.of_dataset ds)

let greedy_seq_plan q ~costs ds =
  order_groups q ~costs ~conditioned:true (V.of_dataset ds)

(* Empirical cost of a plan over the rows of a view. *)
let cost_on_view q ~costs plan view =
  if V.is_empty view then 0.0
  else begin
    let ds = V.dataset view in
    let total = ref 0.0 in
    V.iter view (fun r ->
        let o = run q ~costs plan ~lookup:(fun a -> Acq_data.Dataset.get ds r a) in
        total := !total +. o.cost);
    !total /. float_of_int (V.size view)
  end

let plan ?(max_depth = 3) ?candidate_attrs ?(points_per_attr = 4) q ~costs ds =
  let domains = Acq_data.Schema.domains q.schema in
  let grid = Spsf.equal_width ~domains ~points_per_attr in
  let attrs =
    match candidate_attrs with
    | Some l -> l
    | None -> List.init (Array.length domains) (fun i -> i)
  in
  let rec build view ranges depth =
    let seq = order_groups q ~costs ~conditioned:true view in
    if depth = 0 || V.size view < 20 then seq
    else begin
      let seq_cost = cost_on_view q ~costs seq view in
      let best = ref None in
      List.iter
        (fun i ->
          List.iter
            (fun x ->
              let lo_r, hi_r = R.split ranges.(i) x in
              let lo_v = V.restrict_range view ~attr:i lo_r in
              let hi_v = V.restrict_range view ~attr:i hi_r in
              let p_lo =
                float_of_int (V.size lo_v) /. float_of_int (V.size view)
              in
              let seq_lo = order_groups q ~costs ~conditioned:true lo_v in
              let seq_hi = order_groups q ~costs ~conditioned:true hi_v in
              let c =
                costs.(i)
                +. (p_lo *. cost_on_view q ~costs seq_lo lo_v)
                +. ((1.0 -. p_lo) *. cost_on_view q ~costs seq_hi hi_v)
              in
              match !best with
              | Some (bc, _, _) when bc <= c -> ()
              | Some _ | None -> best := Some (c, i, x))
            (Spsf.candidates grid i ranges.(i)))
        attrs;
      match !best with
      | Some (c, i, x) when c < seq_cost -. 1e-9 ->
          let lo_r, hi_r = R.split ranges.(i) x in
          let low =
            build (V.restrict_range view ~attr:i lo_r)
              (Subproblem.with_range ranges i lo_r)
              (depth - 1)
          in
          let high =
            build (V.restrict_range view ~attr:i hi_r)
              (Subproblem.with_range ranges i hi_r)
              (depth - 1)
          in
          Cond { attr = i; threshold = x; low; high }
      | Some _ | None -> seq
    end
  in
  build (V.of_dataset ds) (Subproblem.initial q.schema) max_depth
