(* Seeded query pools, rendered to the SQL text a client would send.
   The program only ever receives the SQL; [render] is checked to bind
   back to exactly the generated query, so the text and the query the
   pool was drawn as cannot drift apart. *)

module Q = Acq_plan.Query
module Pred = Acq_plan.Predicate

(* A value inside bin [b]: the bin midpoint for continuous attributes
   (Catalog snaps it back to [b]), the value itself for discrete ones. *)
let value (a : Acq_data.Attribute.t) b =
  match a.Acq_data.Attribute.binner with
  | Some binner -> Printf.sprintf "%.6f" (Acq_data.Discretize.mid binner b)
  | None -> string_of_int b

let render q =
  let schema = Q.schema q in
  let cond (p : Pred.t) =
    let a = Acq_data.Schema.attr schema p.Pred.attr in
    let band =
      Printf.sprintf "%s <= %s <= %s" (value a p.Pred.lo)
        a.Acq_data.Attribute.name (value a p.Pred.hi)
    in
    match p.Pred.polarity with
    | Pred.Inside -> band
    | Pred.Outside -> "NOT (" ^ band ^ ")"
  in
  "SELECT * WHERE "
  ^ String.concat " AND " (Array.to_list (Array.map cond (Q.predicates q)))

let binds_back q sql =
  match Acq_sql.Catalog.compile_result (Q.schema q) sql with
  | Error _ -> false
  | Ok c ->
      let a = Q.predicates q and b = Q.predicates c.Acq_sql.Catalog.query in
      Array.length a = Array.length b && Array.for_all2 Pred.equal a b

(* A stratified pool of [Query_gen.lab_query] queries. lab_query draws
   each predicate's lower edge uniformly, and a query's planning cost
   depends on where the edges fall: estimator calls per plan range over
   a factor of ten. A pool of 48 independent draws then differs from
   seed to seed in how many dear queries it holds; the median of its
   estimator calls per plan moved by 18% (quartile distance over
   median, ten seeds). Here the range of lower edges of the i-th
   predicate is cut into [strata.(i)] equal bands, and the pool holds
   one query per cell of the grid they make: draws are taken from
   lab_query in order, and a draw is kept when its cell is still empty.
   Every query is still a lab_query draw and the seed still places it
   within its cell; on the same ten seeds the median moved by 11%. The
   pool comes out in seeded order. *)
let lab_pool rng ~train ~strata =
  let schema = Acq_data.Dataset.schema train in
  let domains = Acq_data.Schema.domains schema in
  let cells = Array.fold_left ( * ) 1 strata in
  let cell q =
    let ps = Q.predicates q in
    Array.fold_left
      (fun acc i ->
        let p = ps.(i) in
        let span = domains.(p.Pred.attr) - (p.Pred.hi - p.Pred.lo + 1) in
        (acc * strata.(i)) + (p.Pred.lo * strata.(i) / span))
      0
      (Array.init (Array.length ps) Fun.id)
  in
  let pool = Array.make cells None in
  let rec fill missing draws =
    if missing > 0 then begin
      if draws = 0 then failwith "Queries.lab_pool: a cell stayed empty";
      let q = Acq_workload.Query_gen.lab_query rng ~train in
      let c = cell q in
      match pool.(c) with
      | Some _ -> fill missing (draws - 1)
      | None ->
          pool.(c) <- Some q;
          fill (missing - 1) (draws - 1)
    end
  in
  fill cells (1000 * cells);
  let pool = Array.map Option.get pool in
  Acq_util.Rng.shuffle rng pool;
  pool

(* [lab_pool] for [seed], drawn on the first call and returned again on
   later ones: the pool is the bench's input, not the program's work, so
   only the first of a run's repeated set-ups pays for it and the
   reported median set-up time leaves it out. *)
let lab_pool_once =
  let memo = ref None in
  fun ~seed ~train ~strata ->
    match !memo with
    | Some (s, pool) when s = seed -> pool
    | _ ->
        let pool = lab_pool (Acq_util.Rng.create seed) ~train ~strata in
        memo := Some (seed, pool);
        pool

(* Every synthetic (Babu et al.) query of 2 to 4 equality predicates on
   distinct expensive attributes, each asking for 1 or 0. The seed
   shuffles each width class, and the classes are dealt round robin, so
   any stretch of the order holds every width in about the same share:
   the seed changes which query meets which load, not how hard the
   queries are. *)
let synthetic rng ~schema =
  let expensive = Acq_data.Schema.expensive_indices schema in
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  let rec assignments = function
    | [] -> [ [] ]
    | a :: rest ->
        List.concat_map
          (fun tail ->
            [ Pred.inside ~attr:a ~lo:1 ~hi:1 :: tail;
              Pred.inside ~attr:a ~lo:0 ~hi:0 :: tail ])
          (assignments rest)
  in
  let classes =
    List.map
      (fun k ->
        let c =
          Array.of_list
            (List.map (Q.create schema)
               (List.concat_map assignments (subsets k expensive)))
        in
        Acq_util.Rng.shuffle rng c;
        Array.to_list c)
      [ 2; 3; 4 ]
  in
  let rec deal acc = function
    | [] -> List.rev acc
    | cs ->
        let heads = List.filter_map (function [] -> None | q :: _ -> Some q) cs in
        let tails =
          List.filter_map (function [] | [ _ ] -> None | _ :: t -> Some t) cs
        in
        deal (List.rev_append heads acc) tails
  in
  Array.of_list (deal [] classes)
