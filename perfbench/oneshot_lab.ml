(* oneshot-lab: the CLI paths on the lab dataset at the CLI default
   spec. One client, closed loop: each seeded query goes through the
   `acqp plan` path (compile, Heuristic plan over the empirical backend,
   measured-cost sweep and correctness check on the held-out half) and
   then the `acqp run` path (Oneshot.run_to_string). Planning dominates
   here, so a faster estimator shows up and a faster executor should
   not. *)

open Common
module P = Acq_core.Planner
module D = Acq_data.Dataset

(* One query per cell of a 4 x 4 x 3 grid of lab queries
   (Queries.lab_pool). *)
let strata = [| 4; 4; 3 |]
let pool_size = Array.fold_left ( * ) 1 strata

type state = {
  history : D.t;
  live : D.t;
  costs : float array;
  sqls : string array;
  generate_ms : float;
}

let compile st sql =
  match Acq_sql.Catalog.compile_result (D.schema st.history) sql with
  | Ok c -> c.Acq_sql.Catalog.query
  | Error msg -> failwith ("generated query does not compile: " ^ msg)

(* `acqp plan`: returns the plan, its measured cost on the held-out
   half, and whether every held-out verdict was right. *)
let plan_path st sql =
  let q = compile st sql in
  let r = P.plan P.Heuristic q ~train:st.history in
  let plan = r.P.plan in
  let cost =
    Acq_exec.Runner.average_cost ~mode:Acq_exec.Mode.default q ~costs:st.costs
      plan st.live
  in
  (r, cost, Acq_plan.Executor.consistent q ~costs:st.costs plan st.live)

(* `acqp run`. *)
let run_path st sql =
  let q = compile st sql in
  Acq_serve.Oneshot.run_to_string ~exec:Acq_exec.Mode.default
    ~algorithm:P.Heuristic ~history:st.history ~live:st.live q

let setup ~tally ~seed () =
  let (history, live), generate_ms =
    time (fun () -> Acq_serve.Source.history_live Acq_serve.Source.default_spec)
  in
  let queries = Queries.lab_pool_once ~seed ~train:history ~strata in
  let sqls = Array.map Queries.render queries in
  Array.iteri
    (fun i q ->
      attempt tally (Queries.binds_back q sqls.(i)) ("SQL round trip " ^ sqls.(i)))
    queries;
  let st =
    {
      history;
      live;
      costs = Acq_data.Schema.costs (D.schema history);
      sqls;
      generate_ms;
    }
  in
  (* Warm-up: the CLI's default query through both paths, the same on
     every seed, so set-up time does not depend on the pool. *)
  let warm = Acq_serve.Source.default_sql Acq_serve.Source.Lab in
  ignore (plan_path st warm);
  ignore (run_path st warm);
  st

(* Tracing off: the pool is served in passes, each query once per
   pass, and every output is checked on every pass. A query's latency
   is the median of its passes, and the percentiles are taken over the
   queries, so each query weighs the same however far the last pass
   got (a pooled percentile took whichever queries the last pass
   reached). Queries the run did not reach are planned after it,
   untimed, so acq_cost_per_tuple always covers the whole pool; the
   percentiles cover the queries it did reach. *)
let measure ~tally ~seconds st =
  let plan = Samples.create () and run = Samples.create () in
  let per_query = Array.init pool_size (fun _ -> Samples.create ()) in
  let calib = Calib.create () in
  let digests = Array.make pool_size "" in
  let cost = Array.make pool_size nan in
  let check k (r, measured, consistent) =
    let sql = st.sqls.(k) and d = plan_digest r.P.plan in
    attempt tally consistent ("plan path verdicts on " ^ sql);
    attempt tally (digests.(k) = "" || digests.(k) = d) ("plan changed on " ^ sql);
    digests.(k) <- d;
    cost.(k) <- measured
  in
  let t_start = now_s () in
  let stop = t_start +. seconds in
  let i = ref 0 and busy_ms = ref 0.0 in
  while now_s () < stop do
    ignore (Calib.tick calib);
    let k = !i mod pool_size in
    let sql = st.sqls.(k) in
    let ((r, _, _) as p), p_ms = time (fun () -> plan_path st sql) in
    let (_, report), r_ms = time (fun () -> run_path st sql) in
    Samples.add plan p_ms;
    Samples.add run r_ms;
    Samples.add per_query.(k) (p_ms +. r_ms);
    busy_ms := !busy_ms +. p_ms +. r_ms;
    check k p;
    attempt tally
      (report.Acq_sensor.Runtime.correct
      && plan_digest report.Acq_sensor.Runtime.plan = plan_digest r.P.plan)
      ("run path verdicts/plan on " ^ sql);
    incr i
  done;
  for k = !i to pool_size - 1 do
    check k (plan_path st st.sqls.(k))
  done;
  let total = Samples.create () in
  Array.iter
    (fun s -> if Samples.length s > 0 then Samples.add total (Samples.pct s 50.0))
    per_query;
  let acq_cost = Array.fold_left ( +. ) 0.0 cost /. float_of_int pool_size in
  let gated, ms = latency_calib calib total in
  ( gated @ [ m "acq_cost_per_tuple" "cost" acq_cost ],
    ms
    @ [
        m "queries_per_s" "1/s" (float_of_int !i *. 1000.0 /. !busy_ms);
        m "plan_ms.p50" "ms" (Samples.pct plan 50.0);
        m "plan_ms.p90" "ms" (Samples.pct plan 90.0);
        m "run_ms.p50" "ms" (Samples.pct run 50.0);
        m "run_ms.p90" "ms" (Samples.pct run 90.0);
        m "queries" "count" (float_of_int !i);
        m "queries_reached" "count" (float_of_int (Samples.length total));
      ] )

(* Tracing on: the same queries, split by layer. Each plan is made
   twice over the same backend spec, once untraced and once through the
   timing wrapper; the two must agree exactly. *)
let trace ~tally ~seconds st =
  let compile_us = Samples.create () and build_ms = Samples.create () in
  let untraced = Samples.create () and traced = Samples.create () in
  let prob_ms = Samples.create () and calls = Samples.create () in
  let nodes = Samples.create () and lower_us = Samples.create () in
  let sweep_ms = Samples.create () and replay_ms = Samples.create () in
  let epochs = Samples.create () in
  let swept_tuples = ref 0 and sweep_total = ref 0.0 in
  let stop = now_s () +. seconds in
  let i = ref 0 in
  while now_s () < stop do
    let sql = st.sqls.(!i mod pool_size) in
    let q, c_ms = time (fun () -> compile st sql) in
    Samples.add compile_us (c_ms *. 1000.0);
    let r0, u_ms = Traced.plan_untraced P.Heuristic q ~train:st.history in
    let t = Traced.plan P.Heuristic q ~train:st.history in
    attempt tally (Traced.same_plan r0 t.Traced.result)
      ("traced plan differs from untraced on " ^ sql);
    Samples.add untraced u_ms;
    Samples.add traced t.Traced.plan_ms;
    Samples.add build_ms t.Traced.build_ms;
    Samples.add prob_ms t.Traced.prob_ms;
    Samples.add calls (float_of_int t.Traced.calls);
    Samples.add nodes
      (float_of_int t.Traced.result.P.stats.Acq_core.Search.nodes_solved);
    let plan = t.Traced.result.P.plan in
    let prepared, l_ms =
      time (fun () ->
          Acq_exec.Runner.prepare ~mode:Acq_exec.Mode.Compiled q ~costs:st.costs
            plan)
    in
    Samples.add lower_us (l_ms *. 1000.0);
    let _, s_ms =
      time (fun () -> Acq_exec.Runner.average_cost_prepared prepared st.live)
    in
    Samples.add sweep_ms s_ms;
    sweep_total := !sweep_total +. s_ms;
    swept_tuples := !swept_tuples + D.nrows st.live;
    (* acqp run = planning + sensor replay: replay time is the run
       path's wall time minus the planner's on the same query. *)
    let _, planner_ms = time (fun () -> P.plan P.Heuristic q ~train:st.history) in
    let (_, report), run_ms =
      time (fun () ->
          Acq_serve.Oneshot.run_to_string ~exec:Acq_exec.Mode.default
            ~algorithm:P.Heuristic ~history:st.history ~live:st.live q)
    in
    attempt tally report.Acq_sensor.Runtime.correct ("run path verdicts on " ^ sql);
    Samples.add replay_ms (run_ms -. planner_ms);
    Samples.add epochs (float_of_int report.Acq_sensor.Runtime.epochs);
    incr i
  done;
  let plan_ms = Samples.mean traced and self_ms = Samples.mean prob_ms in
  let mean_calls = Samples.mean calls in
  [
    m "acq_data.generate_ms" "ms" st.generate_ms;
    m "acq_sql.compile_us" "us" (Samples.pct compile_us 50.0);
    m "acq_prob.build_ms" "ms" (Samples.mean build_ms);
    m "acq_prob.calls" "count" mean_calls;
    m "acq_prob.self_ms" "ms" self_ms;
    m "acq_prob.ns_per_call" "ns"
      (if mean_calls > 0.0 then self_ms *. 1e6 /. mean_calls else 0.0);
    m "acq_core.plan_ms" "ms" plan_ms;
    m "acq_core.untraced_plan_ms" "ms" (Samples.mean untraced);
    m "acq_core.trace_overhead_ms" "ms" (plan_ms -. Samples.mean untraced);
    m "acq_core.search_self_ms" "ms" (plan_ms -. self_ms);
    m "acq_core.nodes_solved" "count" (Samples.mean nodes);
    m "acq_core.calls_per_node" "ratio" (mean_calls /. Samples.mean nodes);
    m "acq_exec.lower_us" "us" (Samples.pct lower_us 50.0);
    m "acq_exec.sweep_ms" "ms" (Samples.mean sweep_ms);
    m "acq_exec.ns_per_session_tuple" "ns"
      (!sweep_total *. 1e6 /. float_of_int (max 1 !swept_tuples));
    m "acq_sensor.replay_ms" "ms" (Samples.mean replay_ms);
    m "acq_sensor.epochs" "count" (Samples.mean epochs);
  ]
