(* A Backend.S wrapper that times every call into a packed backend with
   the bench clock: the estimator's self time and call count, measured
   from outside the planner. It ticks on the same calls as
   Backend.counting, so [calls] equals the planner's estimator_calls. *)

module B = Acq_prob.Backend

type acc = { mutable calls : int; mutable ns : int }

let acc () = { calls = 0; ns = 0 }

let wrap acc inner =
  let module W = struct
    type state = B.t

    let name = B.name inner

    let timed ~tick f =
      let t0 = Common.now_ns () in
      let r = f () in
      acc.ns <- acc.ns + (Common.now_ns () - t0);
      if tick then acc.calls <- acc.calls + 1;
      r

    let weight s = timed ~tick:false (fun () -> B.weight s)
    let range_prob s a r = timed ~tick:true (fun () -> B.range_prob s a r)
    let value_probs s a = timed ~tick:true (fun () -> B.value_probs s a)
    let pred_prob s p = timed ~tick:true (fun () -> B.pred_prob s p)
    let pattern_probs s ps = timed ~tick:true (fun () -> B.pattern_probs s ps)

    let range_prob_ci s a r =
      timed ~tick:true (fun () -> B.range_prob_ci s a r)

    let pred_prob_ci s p = timed ~tick:true (fun () -> B.pred_prob_ci s p)

    let restrict_range s a r =
      timed ~tick:true (fun () -> B.restrict_range s a r)

    let restrict_pred s p b =
      timed ~tick:true (fun () -> B.restrict_pred s p b)

    let refine s =
      let r = timed ~tick:false (fun () -> B.refine s) in
      if Option.is_some r then acc.calls <- acc.calls + 1;
      r

    let sampling s = B.sampling s
    let max_pattern_preds s = B.max_pattern_preds s
    let cond_signature s = timed ~tick:false (fun () -> B.cond_signature s)
  end in
  B.B ((module W), inner)

module P = Acq_core.Planner

(* The backend Planner.plan would build for [algorithm]: Pac plans over
   the default sampled kind unless sampling is already selected. *)
let spec_for (options : P.options) algorithm =
  match (algorithm, options.P.prob_model.B.kind) with
  | P.Pac, B.Sampled _ -> options.P.prob_model
  | P.Pac, _ -> { options.P.prob_model with B.kind = B.default_sampled_kind }
  | _ -> options.P.prob_model

type plan_trace = {
  result : P.result;
  build_ms : float;
  plan_ms : float;  (** Planner.plan_with_backend wall time *)
  prob_ms : float;  (** time inside the wrapped backend *)
  calls : int;
}

(* Plan once over the traced backend, timing the build and the search
   separately. *)
let plan ?(options = P.default_options) algorithm q ~train =
  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
  let backend, build_ms =
    Common.time (fun () ->
        B.of_dataset ~spec:(spec_for options algorithm) train)
  in
  let a = acc () in
  let result, plan_ms =
    Common.time (fun () ->
        P.plan_with_backend ~options algorithm q ~costs (wrap a backend))
  in
  { result; build_ms; plan_ms; prob_ms = Common.ms_of_ns a.ns; calls = a.calls }

(* The same search over the raw backend (no wrapper), timed the same
   way: the untraced twin the tracing overhead is measured against. *)
let plan_untraced ?(options = P.default_options) algorithm q ~train =
  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
  let backend = B.of_dataset ~spec:(spec_for options algorithm) train in
  Common.time (fun () -> P.plan_with_backend ~options algorithm q ~costs backend)

let same_plan (a : P.result) (b : P.result) =
  Common.plan_digest a.P.plan = Common.plan_digest b.P.plan
  && Float.equal a.P.est_cost b.P.est_cost
