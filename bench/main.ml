(* Benchmark harness.

   Default invocation reproduces every table and figure of the paper's
   evaluation at CI scale, then runs the Bechamel micro-benchmarks (one
   Test.make per table/figure, timing that experiment's planning
   kernel).

     dune exec bench/main.exe                 # everything, quick
     dune exec bench/main.exe -- fig8a fig12  # selected experiments
     dune exec bench/main.exe -- --full       # paper-scale counts
     dune exec bench/main.exe -- --micro      # micro-benchmarks only
     dune exec bench/main.exe -- --list       # available ids
*)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmark kernels: one per reproduced table/figure, each
   timing the planning (or probability) kernel that experiment
   stresses, on a small fixed instance. *)

module K = struct
  module P = Acq_core.Planner
  module Rng = Acq_util.Rng

  let lab = lazy (Acq_data.Lab_gen.generate (Rng.create 901) ~rows:4_000)

  let lab_coarse =
    lazy
      (Acq_data.Dataset.coarsen (Lazy.force lab)
         ~factors:Acq_workload.Figures.coarse_factors)

  let garden5 =
    lazy (Acq_data.Garden_gen.generate (Rng.create 902) ~n_motes:5 ~rows:4_000)

  let garden11 =
    lazy (Acq_data.Garden_gen.generate (Rng.create 903) ~n_motes:11 ~rows:4_000)

  let synthetic =
    lazy
      (Acq_data.Synthetic_gen.generate (Rng.create 904)
         { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
         ~rows:4_000)

  let lab_query ds seed =
    Acq_workload.Query_gen.lab_query (Rng.create seed) ~train:ds

  let garden_query ds n seed =
    Acq_workload.Query_gen.garden_query (Rng.create seed)
      ~schema:(Acq_data.Dataset.schema ds) ~n_motes:n

  let plan algo options q train () =
    ignore (P.plan ~options algo q ~train : P.result)

  let opts = P.default_options

  let cheap ds = Acq_data.Schema.cheap_indices (Acq_data.Dataset.schema ds)

  let tests =
    [
      (* fig1: correlation statistics over the lab trace. *)
      Test.make ~name:"fig1/mutual-information"
        (Staged.stage (fun () ->
             let ds = Lazy.force lab_coarse in
             ignore
               (Acq_prob.Mutual_info.mi ds Acq_data.Lab_gen.idx_hour
                  Acq_data.Lab_gen.idx_light
                 : float)));
      (* fig2: one-split conditional plan. *)
      Test.make ~name:"fig2/heuristic-1split"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            plan P.Heuristic { opts with max_splits = 1 } q ds));
      (* fig3: exhaustive enumeration on 3 binary attributes. *)
      Test.make ~name:"fig3/enumerate"
        (Staged.stage (fun () ->
             let schema =
               Acq_data.Schema.create
                 [
                   Acq_data.Attribute.discrete ~name:"x1" ~cost:10.0 ~domain:2;
                   Acq_data.Attribute.discrete ~name:"x2" ~cost:10.0 ~domain:2;
                   Acq_data.Attribute.discrete ~name:"x3" ~cost:1.0 ~domain:2;
                 ]
             in
             let rng = Rng.create 92 in
             let rows =
               Array.init 500 (fun _ ->
                   [| Rng.int rng 2; Rng.int rng 2; Rng.int rng 2 |])
             in
             let ds = Acq_data.Dataset.create schema rows in
             let q =
               Acq_plan.Query.create schema
                 [
                   Acq_plan.Predicate.inside ~attr:0 ~lo:1 ~hi:1;
                   Acq_plan.Predicate.inside ~attr:1 ~lo:1 ~hi:1;
                 ]
             in
             ignore
               (Acq_core.Enumerate.all_plans q
                  ~costs:(Acq_data.Schema.costs schema)
                  (Acq_prob.Backend.empirical ds)
                 : (Acq_plan.Plan.t * float) list)));
      (* fig8a: exhaustive planning on the coarsened lab problem. *)
      Test.make ~name:"fig8a/exhaustive-r2"
        (Staged.stage
           (let ds = Lazy.force lab_coarse in
            let q = lab_query ds 93 in
            plan P.Exhaustive
              { opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
              q ds));
      (* fig8b: heuristic at a large SPSF. *)
      Test.make ~name:"fig8b/heuristic-r8"
        (Staged.stage
           (let ds = Lazy.force lab_coarse in
            let q = lab_query ds 94 in
            plan P.Heuristic { opts with split_points_per_attr = 8 } q ds));
      (* fig8c: heuristic-10 on the full-resolution lab data. *)
      Test.make ~name:"fig8c/heuristic-10"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 95 in
            plan P.Heuristic { opts with max_splits = 10 } q ds));
      (* fig9: plan printing path. *)
      Test.make ~name:"fig9/plan-and-print"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 96 in
            fun () ->
              let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
              ignore (Acq_plan.Printer.to_string q p : string)));
      (* fig10/fig11: greedy conditional planning over garden schemas. *)
      Test.make ~name:"fig10/heuristic-garden5"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 97 in
            plan P.Heuristic
              { opts with split_points_per_attr = 4;
                candidate_attrs = Some (cheap ds) }
              q ds));
      Test.make ~name:"fig11/heuristic-garden11"
        (Staged.stage
           (let ds = Lazy.force garden11 in
            let q = garden_query ds 11 98 in
            plan P.Heuristic
              { opts with split_points_per_attr = 4;
                candidate_attrs = Some (cheap ds) }
              q ds));
      (* fig12: synthetic-data planning. *)
      Test.make ~name:"fig12/heuristic-synthetic"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            plan P.Heuristic
              { opts with candidate_attrs = Some (cheap ds) }
              q ds));
      (* scale: the sequential planners. *)
      Test.make ~name:"scale/optseq-m10"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 99 in
            let est = Acq_prob.Backend.empirical ds in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            fun () -> ignore (Acq_core.Optseq.order q ~costs est : int list * float)));
      Test.make ~name:"scale/greedyseq-m22"
        (Staged.stage
           (let ds = Lazy.force garden11 in
            let q = garden_query ds 11 100 in
            let est = Acq_prob.Backend.empirical ds in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            fun () ->
              ignore (Acq_core.Greedyseq.order q ~costs est : int list * float)));
      (* ablate-size: plan serialization (the bytes the radio ships). *)
      Test.make ~name:"ablate-size/serialize"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 101 in
            let p =
              (P.plan
                 ~options:{ opts with max_splits = 10; split_points_per_attr = 4 }
                 P.Heuristic q ~train:ds)
                .P.plan
            in
            fun () ->
              ignore (Acq_plan.Serialize.decode (Acq_plan.Serialize.encode p)
                       : Acq_plan.Plan.t)));
      (* ablate-model: Chow-Liu learning and inference. *)
      Test.make ~name:"ablate-model/chow-liu-learn"
        (Staged.stage (fun () ->
             ignore (Acq_prob.Chow_liu.learn (Lazy.force lab_coarse)
                      : Acq_prob.Chow_liu.t)));
      (* ablate-spsf: greedy split search at a fine grid. *)
      Test.make ~name:"ablate-spsf/heuristic-r16"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 102 in
            plan P.Heuristic { opts with split_points_per_attr = 16 } q ds));
      (* obs: telemetry overhead on the executor hot loop — the same
         average_cost call with a no-op handle vs a live registry. *)
      Test.make ~name:"obs/avg-cost-noop"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            fun () ->
              ignore
                (Acq_plan.Executor.average_cost ~obs:Acq_obs.Telemetry.noop q
                   ~costs p ds
                  : float)));
      Test.make ~name:"obs/avg-cost-live"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            let m = Acq_obs.Metrics.create () in
            let obs = Acq_obs.Telemetry.create ~metrics:m () in
            fun () ->
              ignore
                (Acq_plan.Executor.average_cost ~obs q ~costs p ds : float)));
      (* adapt: the per-epoch session duty cycle (observe + window
         push) and the plan-cache key normalization. *)
      Test.make ~name:"adapt/session-observe"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            let session =
              Acq_adapt.Session.create ~algorithm:P.Heuristic ~window:256
                ~history:ds q
            in
            let n = Acq_data.Dataset.nrows ds in
            let i = ref 0 in
            fun () ->
              Acq_adapt.Session.observe session ~cost:100.0
                (Acq_data.Dataset.row ds (!i mod n));
              incr i));
      Test.make ~name:"adapt/cache-signature"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            fun () ->
              ignore
                (Acq_adapt.Plan_cache.signature ~options:opts ~stats_epoch:7
                   ~algorithm:P.Heuristic q
                  : string)));
      (* exec: the Eq.-4 sweep on the tree interpreter vs the compiled
         flat automaton over a hoisted columnar snapshot. *)
      Test.make ~name:"exec/avg-cost-tree"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 97 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            fun () ->
              ignore (Acq_plan.Executor.average_cost q ~costs p ds : float)));
      Test.make ~name:"exec/avg-cost-compiled"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 97 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            let b =
              Acq_exec.Batch.create ~costs (Acq_exec.Compile.compile q p)
            in
            fun () -> ignore (Acq_exec.Batch.average_cost b ds : float)));
    ]
end

(* ------------------------------------------------------------------ *)
(* Planner search statistics, exported as JSON for dashboards and
   regression tracking. One record per (experiment kernel, algorithm):
   the Search counters every Planner.result now carries. *)

let write_stats_json path =
  let module P = Acq_core.Planner in
  let runs =
    let lab_coarse = Lazy.force K.lab_coarse in
    let lab_q = K.lab_query lab_coarse 93 in
    let garden5 = Lazy.force K.garden5 in
    let garden_q = K.garden_query garden5 5 97 in
    let synthetic = Lazy.force K.synthetic in
    let synth_q =
      Acq_workload.Query_gen.synthetic_query
        { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
        ~schema:(Acq_data.Dataset.schema synthetic)
    in
    [
      ( "lab-coarse",
        "Naive",
        P.plan ~options:K.opts P.Naive lab_q ~train:lab_coarse );
      ( "lab-coarse",
        "CorrSeq",
        P.plan ~options:K.opts P.Corr_seq lab_q ~train:lab_coarse );
      ( "lab-coarse",
        "Heuristic",
        P.plan
          ~options:{ K.opts with split_points_per_attr = 2 }
          P.Heuristic lab_q ~train:lab_coarse );
      ( "lab-coarse",
        "Exhaustive-r2",
        P.plan
          ~options:
            {
              K.opts with
              split_points_per_attr = 2;
              exhaustive_budget = 5_000_000;
            }
          P.Exhaustive lab_q ~train:lab_coarse );
      ( "garden5",
        "Heuristic-10",
        P.plan
          ~options:
            {
              K.opts with
              max_splits = 10;
              split_points_per_attr = 4;
              candidate_attrs = Some (K.cheap garden5);
            }
          P.Heuristic garden_q ~train:garden5 );
      ( "synthetic",
        "Heuristic",
        P.plan
          ~options:{ K.opts with candidate_attrs = Some (K.cheap synthetic) }
          P.Heuristic synth_q ~train:synthetic );
    ]
  in
  let entry (experiment, algorithm, (r : P.result)) =
    let s : Acq_core.Search.stats = r.P.stats in
    Printf.sprintf
      "  {\"experiment\": %S, \"algorithm\": %S, \"est_cost\": %.4f, \
       \"nodes_solved\": %d, \"memo_hits\": %d, \"estimator_calls\": %d, \
       \"plan_size\": %d, \"wall_ms\": %.3f}"
      experiment algorithm r.P.est_cost s.Acq_core.Search.nodes_solved
      s.Acq_core.Search.memo_hits s.Acq_core.Search.estimator_calls
      s.Acq_core.Search.plan_size s.Acq_core.Search.wall_ms
  in
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.map entry runs));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "wrote planner search statistics to %s\n" path

(* ------------------------------------------------------------------ *)
(* Telemetry export: run a handful of representative workloads under a
   live metrics registry and dump every counter per (experiment,
   algorithm) as BENCH_obs.json — planner search effort, per-attribute
   executor acquisitions, and per-mote runtime energy. A checked-in
   schema (bench/BENCH_obs.schema.json) pins the shape; the validator
   below interprets the JSON-Schema subset the schema uses. *)

module J = Acq_obs.Json

let obs_runs () =
  let module P = Acq_core.Planner in
  let lab_coarse = Lazy.force K.lab_coarse in
  let lab_q = K.lab_query lab_coarse 93 in
  let planner name options algo =
    ( "lab-coarse",
      name,
      fun obs ->
        ignore (P.plan ~options ~telemetry:obs algo lab_q ~train:lab_coarse
                 : P.result) )
  in
  [
    planner "Naive" K.opts P.Naive;
    planner "CorrSeq" K.opts P.Corr_seq;
    planner "Heuristic"
      { K.opts with split_points_per_attr = 2 }
      P.Heuristic;
    planner "Exhaustive-r2"
      {
        K.opts with
        split_points_per_attr = 2;
        exhaustive_budget = 5_000_000;
      }
      P.Exhaustive;
    ( "lab-runtime",
      "Heuristic",
      fun obs ->
        let lab = Lazy.force K.lab in
        let history, live =
          Acq_data.Dataset.split_by_time lab ~train_fraction:0.5
        in
        let q = K.lab_query history 91 in
        ignore
          (Acq_sensor.Runtime.run ~telemetry:obs
             ~algorithm:Acq_core.Planner.Heuristic ~history ~live q
            : Acq_sensor.Runtime.report) );
  ]

let write_obs_json path =
  let entries =
    List.map
      (fun (experiment, algorithm, thunk) ->
        let m = Acq_obs.Metrics.create () in
        thunk (Acq_obs.Telemetry.create ~metrics:m ());
        J.Obj
          [
            ("experiment", J.Str experiment);
            ("algorithm", J.Str algorithm);
            ("metrics", Acq_obs.Metrics.to_json m);
          ])
      (obs_runs ())
  in
  let doc = J.Obj [ ("version", J.Num 1.0); ("entries", J.Arr entries) ] in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote telemetry counters to %s\n" path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Check [v] against the subset of JSON Schema the checked-in schemas
   use: type, required, properties, items, minItems, minimum, maximum,
   const —
   plus a custom [requiredMetricNames] list of metric families that
   must have been recorded somewhere in the document. Returns
   human-readable errors. *)
let schema_errors schema v =
  let errs = ref [] in
  let err path msg = errs := Printf.sprintf "%s: %s" path msg :: !errs in
  let rec go path s v =
    let field name =
      match s with J.Obj kvs -> List.assoc_opt name kvs | _ -> None
    in
    (match field "type" with
    | Some (J.Str t) ->
        let ok =
          match (t, v) with
          | "object", J.Obj _
          | "array", J.Arr _
          | "string", J.Str _
          | "number", J.Num _
          | "boolean", J.Bool _ ->
              true
          | _ -> false
        in
        if not ok then err path ("expected " ^ t)
    | _ -> ());
    (match (field "required", v) with
    | Some (J.Arr req), J.Obj kvs ->
        List.iter
          (function
            | J.Str k ->
                if not (List.mem_assoc k kvs) then
                  err path ("missing field " ^ k)
            | _ -> ())
          req
    | _ -> ());
    (match (field "properties", v) with
    | Some (J.Obj props), J.Obj kvs ->
        List.iter
          (fun (k, sub) ->
            match List.assoc_opt k kvs with
            | Some vv -> go (path ^ "." ^ k) sub vv
            | None -> ())
          props
    | _ -> ());
    (match (field "items", v) with
    | Some sub, J.Arr elems ->
        List.iteri
          (fun i vv -> go (Printf.sprintf "%s[%d]" path i) sub vv)
          elems
    | _ -> ());
    (match (field "minItems", v) with
    | Some (J.Num n), J.Arr elems ->
        if List.length elems < int_of_float n then
          err path (Printf.sprintf "fewer than %.0f items" n)
    | _ -> ());
    (match (field "minimum", v) with
    | Some (J.Num lo), J.Num x ->
        if x < lo then err path (Printf.sprintf "%g below minimum %g" x lo)
    | Some (J.Num _), _ -> err path "minimum given for non-number"
    | _ -> ());
    (match (field "maximum", v) with
    | Some (J.Num hi), J.Num x ->
        if x > hi then err path (Printf.sprintf "%g above maximum %g" x hi)
    | Some (J.Num _), _ -> err path "maximum given for non-number"
    | _ -> ());
    match field "const" with
    | Some c -> if c <> v then err path ("not the required constant " ^ J.to_string c)
    | None -> ()
  in
  go "$" schema v;
  (match schema with
  | J.Obj kvs -> (
      match List.assoc_opt "requiredMetricNames" kvs with
      | Some (J.Arr names) ->
          let mentioned = ref [] in
          let rec collect v =
            match v with
            | J.Obj kvs ->
                List.iter
                  (fun (k, vv) ->
                    (match (k, vv) with
                    | "name", J.Str s -> mentioned := s :: !mentioned
                    | _ -> ());
                    collect vv)
                  kvs
            | J.Arr l -> List.iter collect l
            | _ -> ()
          in
          collect v;
          List.iter
            (function
              | J.Str n ->
                  if not (List.mem n !mentioned) then
                    err "$" ("metric never recorded: " ^ n)
              | _ -> ())
            names
      | _ -> ())
  | _ -> ());
  List.rev !errs

(* Validate [path] against the schema of bench section [section]: the
   checked-in [bench/BENCH_<section>.schema.json] when run from the
   repo root, else the same file name in the cwd. *)
let validate ~section path =
  let schema_path =
    let in_tree = Filename.concat "bench" (Bench_sections.schema_file section) in
    if Sys.file_exists in_tree then in_tree
    else Bench_sections.schema_file section
  in
  let parse_or_die what p =
    match J.parse (read_file p) with
    | Ok v -> v
    | Error e ->
        Printf.eprintf "%s %s: invalid JSON: %s\n" what p e;
        exit 1
  in
  let doc = parse_or_die "document" path in
  let schema = parse_or_die "schema" schema_path in
  match schema_errors schema doc with
  | [] -> Printf.printf "%s conforms to %s\n" path schema_path
  | errs ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
      exit 1

(* ------------------------------------------------------------------ *)
(* Adaptive-replanning bench: one drifting trace (two correlation
   flips) and one stationary trace, each served under every replanning
   policy. BENCH_adapt.json records per-arm energy, replan counts, and
   the full switch timeline, plus a summary carrying the headline
   numbers: drift-triggered replanning beats the static plan by >= 15%
   total energy on the drifting trace within change_points + 2 replans,
   and never fires on the stationary trace. A checked-in schema
   (bench/BENCH_adapt.schema.json) pins the shape. *)

let adapt_params = { Acq_data.Synthetic_gen.n = 12; gamma = 2; sel = 0.25 }
let adapt_rows = 6_000
let adapt_change_points = [ 2_000; 4_000 ]
let adapt_window = 256

let adapt_history =
  lazy
    (Acq_data.Synthetic_gen.generate (Acq_util.Rng.create 71) adapt_params
       ~rows:2_000)

let adapt_drifting =
  lazy
    (Acq_data.Synthetic_gen.generate_drifting (Acq_util.Rng.create 72)
       adapt_params ~rows:adapt_rows ~change_points:adapt_change_points)

let adapt_stationary =
  lazy
    (Acq_data.Synthetic_gen.generate (Acq_util.Rng.create 73) adapt_params
       ~rows:adapt_rows)

let adapt_policies =
  let module Pol = Acq_adapt.Policy in
  [
    ("static", Pol.static_);
    ("periodic-1k", Pol.periodic 1_000);
    ("drift", Pol.drift_triggered ~check_every:32 ~cooldown:128 0.10);
    ( "drift-regret",
      Pol.drift_regret ~check_every:32 ~cooldown:128 0.10 ~regret:1.5 );
  ]

let adapt_run ~live policy =
  let history = Lazy.force adapt_history in
  let schema = Acq_data.Dataset.schema history in
  let q = Acq_workload.Query_gen.synthetic_query adapt_params ~schema in
  let options =
    {
      K.opts with
      candidate_attrs = Some (Acq_data.Schema.cheap_indices schema);
      max_splits = 3;
    }
  in
  Acq_sensor.Runtime.run_adaptive ~options ~policy ~window:adapt_window
    ~algorithm:Acq_core.Planner.Heuristic ~history ~live q

let adapt_entry ~trace name (r : Acq_sensor.Runtime.adaptive_report) =
  let module Rt = Acq_sensor.Runtime in
  let module S = Acq_adapt.Session in
  let switch (sw : S.switch) =
    J.Obj
      [
        ("epoch", J.Num (float_of_int sw.S.epoch));
        ( "trigger",
          J.Str
            (match sw.S.reason with
            | Acq_adapt.Policy.Periodic _ -> "periodic"
            | Acq_adapt.Policy.Drift _ -> "drift"
            | Acq_adapt.Policy.Regret _ -> "regret") );
        ("reason", J.Str (Acq_adapt.Policy.describe sw.S.reason));
        ("old_expected", J.Num sw.S.old_expected);
        ("new_expected", J.Num sw.S.new_expected);
        ("plan_bytes", J.Num (float_of_int sw.S.plan_bytes));
        ("cache_hit", J.Bool sw.S.cache_hit);
      ]
  in
  let c = r.Rt.cache_stats in
  J.Obj
    [
      ("policy", J.Str name);
      ("trace", J.Str trace);
      ("epochs", J.Num (float_of_int r.Rt.a_epochs));
      ("matches", J.Num (float_of_int r.Rt.a_matches));
      ("replans", J.Num (float_of_int r.Rt.a_replans));
      ("failed_replans", J.Num (float_of_int r.Rt.a_failed_replans));
      ("acquisition_energy", J.Num r.Rt.a_acquisition_energy);
      ("radio_energy", J.Num r.Rt.a_radio_energy);
      ("total_energy", J.Num r.Rt.a_total_energy);
      ("correct", J.Bool r.Rt.a_correct);
      ("switches", J.Arr (List.map switch r.Rt.switches));
      ( "cache",
        J.Obj
          [
            ("hits", J.Num (float_of_int c.Acq_adapt.Plan_cache.hits));
            ("misses", J.Num (float_of_int c.Acq_adapt.Plan_cache.misses));
            ("evictions", J.Num (float_of_int c.Acq_adapt.Plan_cache.evictions));
            ( "invalidations",
              J.Num (float_of_int c.Acq_adapt.Plan_cache.invalidations) );
          ] );
    ]

let write_adapt_json path =
  let module Rt = Acq_sensor.Runtime in
  let drifting =
    List.map
      (fun (name, pol) ->
        (name, adapt_run ~live:(Lazy.force adapt_drifting) pol))
      adapt_policies
  in
  let stationary_drift =
    adapt_run ~live:(Lazy.force adapt_stationary)
      (List.assoc "drift" adapt_policies)
  in
  let static_total = (List.assoc "static" drifting).Rt.a_total_energy in
  let drift_r = List.assoc "drift" drifting in
  let entries =
    List.map (fun (name, r) -> adapt_entry ~trace:"drifting" name r) drifting
    @ [ adapt_entry ~trace:"stationary" "drift" stationary_drift ]
  in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "scenario",
          J.Obj
            [
              ("rows", J.Num (float_of_int adapt_rows));
              ( "change_points",
                J.Arr
                  (List.map
                     (fun c -> J.Num (float_of_int c))
                     adapt_change_points) );
              ("window", J.Num (float_of_int adapt_window));
              ("algorithm", J.Str "Heuristic");
            ] );
        ("entries", J.Arr entries);
        ( "summary",
          J.Obj
            [
              ("static_total_energy", J.Num static_total);
              ("drift_total_energy", J.Num drift_r.Rt.a_total_energy);
              ( "drift_vs_static_energy_ratio",
                J.Num (drift_r.Rt.a_total_energy /. static_total) );
              ("drift_replans", J.Num (float_of_int drift_r.Rt.a_replans));
              ( "max_replans_allowed",
                J.Num (float_of_int (List.length adapt_change_points + 2)) );
              ( "stationary_drift_replans",
                J.Num (float_of_int stationary_drift.Rt.a_replans) );
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote adaptive-replanning results to %s\n" path

(* ------------------------------------------------------------------ *)
(* Multicore bench: the garden5 workload fanned across a 4-domain pool
   versus run sequentially, plus a portfolio race kernel. BENCH_par.json
   records wall times, the deterministic work-balance speedup (total
   work units / busiest domain's work units — what wall-clock speedup
   converges to given enough cores; wall time itself is reported but
   depends on the machine), a byte-identity check of the sequential and
   two independent parallel reports, and the pool's merged telemetry.
   A checked-in schema (bench/BENCH_par.schema.json) pins the shape and
   the headline floors: work speedup >= 2.5 on 4 domains, reports
   deterministic, portfolio races all agreeing. *)

let par_jobs = 4
let par_queries = 24

let write_par_json ~races path =
  let module Pe = Acq_par.Parallel_experiment in
  let module Pf = Acq_par.Portfolio in
  let module P = Acq_core.Planner in
  let garden5 = Lazy.force K.garden5 in
  let train, test = Acq_data.Dataset.split_by_time garden5 ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema garden5 in
  let options =
    {
      K.opts with
      split_points_per_attr = 4;
      candidate_attrs = Some (K.cheap garden5);
    }
  in
  let specs =
    [
      {
        Pe.name = "heuristic";
        build = (fun q -> P.plan ~options P.Heuristic q ~train);
      };
    ]
  in
  let gen_query rng =
    Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5
  in
  let fan ?pool () =
    Pe.run ?pool ~seed:906 ~specs ~gen_query ~n_queries:par_queries ~train
      ~test ()
  in
  (* One registry collects everything: the 4-domain fan-out's merged
     worker shards and the portfolio kernel's counters. *)
  let reg = Acq_obs.Metrics.create () in
  let obs = Acq_obs.Telemetry.create ~metrics:reg () in
  let seq = fan () in
  let par =
    Acq_par.Domain_pool.with_pool ~telemetry:obs ~domains:par_jobs (fun pool ->
        fan ~pool ())
  in
  (* A second, independent pool run: determinism must hold between two
     parallel runs, not just parallel vs sequential. *)
  let par' =
    Acq_par.Domain_pool.with_pool ~domains:par_jobs (fun pool -> fan ~pool ())
  in
  let canon (o : Pe.outcome) = Pe.report_to_string o.Pe.report in
  let deterministic = canon seq = canon par && canon par = canon par' in
  (* Portfolio kernel: the coarsened lab problem, where exhaustive is
     feasible and the three arms genuinely compete. *)
  let lab_coarse = Lazy.force K.lab_coarse in
  let pq = K.lab_query lab_coarse 93 in
  let popts =
    { K.opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
  in
  let outcomes =
    Acq_par.Domain_pool.with_pool ~telemetry:obs ~domains:3 (fun pool ->
        List.init races (fun _ ->
            Pf.race ~options:popts ~pool ~telemetry:obs pq ~train:lab_coarse))
  in
  let race_sig (o : Pf.outcome) =
    match o.Pf.winner with
    | Some (a, r) -> Printf.sprintf "%s:%.6f" (P.algorithm_name a) r.P.est_cost
    | None -> "none"
  in
  let race_consistent =
    match outcomes with
    | [] -> false
    | o :: rest -> List.for_all (fun o' -> race_sig o' = race_sig o) rest
  in
  let first_race = List.hd outcomes in
  let wall_speedup =
    if par.Pe.wall_ms > 0.0 then seq.Pe.wall_ms /. par.Pe.wall_ms else 0.0
  in
  let work_speedup = Pe.work_speedup par in
  let units = Pe.work_units par.Pe.report in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ( "fanout",
          J.Obj
            [
              ("dataset", J.Str "garden5");
              ("spec", J.Str "heuristic");
              ("jobs", J.Num (float_of_int par_jobs));
              ("queries", J.Num (float_of_int par_queries));
              ("sequential_wall_ms", J.Num seq.Pe.wall_ms);
              ("parallel_wall_ms", J.Num par.Pe.wall_ms);
              ("wall_speedup", J.Num wall_speedup);
              ("work_speedup", J.Num work_speedup);
              ( "work_units_total",
                J.Num (float_of_int (Array.fold_left ( + ) 0 units)) );
              ( "task_domains",
                J.Arr
                  (Array.to_list
                     (Array.map
                        (fun d -> J.Num (float_of_int d))
                        par.Pe.task_domains)) );
              ("deterministic", J.Bool deterministic);
            ] );
        ( "portfolio",
          J.Obj
            [
              ("dataset", J.Str "lab-coarse");
              ("races", J.Num (float_of_int races));
              ("consistent", J.Bool race_consistent);
              ( "winner",
                match first_race.Pf.winner with
                | Some (a, r) ->
                    J.Obj
                      [
                        ("algorithm", J.Str (P.algorithm_name a));
                        ("est_cost", J.Num r.P.est_cost);
                      ]
                | None -> J.Obj [ ("algorithm", J.Str "none") ] );
              ( "arms",
                J.Arr
                  (List.map
                     (fun (arm : Pf.arm) ->
                       J.Obj
                         [
                           ( "algorithm",
                             J.Str (P.algorithm_name arm.Pf.algorithm) );
                           ("status", J.Str (Pf.status_name arm.Pf.status));
                           ( "est_cost",
                             match arm.Pf.result with
                             | Some r -> J.Num r.P.est_cost
                             | None -> J.Str "-" );
                         ])
                     first_race.Pf.arms) );
            ] );
        ("pool_metrics", Acq_obs.Metrics.to_json reg);
        ( "summary",
          J.Obj
            [
              ("fanout_speedup", J.Num work_speedup);
              ("speedup_kind", J.Str "work-balance");
              ("wall_speedup", J.Num wall_speedup);
              ("deterministic", J.Bool deterministic);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote multicore results to %s (work speedup %.2fx on %d domains, wall \
     %.2fx on this machine, deterministic=%b)\n"
    path work_speedup par_jobs wall_speedup deterministic

(* ------------------------------------------------------------------ *)
(* Probability-backend bench: (1) the packed dense table's O(1)
   unconditioned range_prob against the closure estimator's bitset
   view, one popcount pass over rows/63 words, and (2) the memo combinator's hit rate when one shared
   memoized backend serves an exhaustive-planner workload over a
   4-attribute problem, with a differential check that memoization
   leaves every plan and expected cost byte-identical. BENCH_prob.json
   records both; the checked-in schema pins the headline floors
   (speedup >= 3, hit rate >= 0.5). *)

let prob_memo_queries = 12

let write_prob_json path =
  let module P = Acq_core.Planner in
  let module B = Acq_prob.Backend in
  let module Rng = Acq_util.Rng in
  (* -- kernel 1: range_prob, packed vs closure ---------------------- *)
  let ds = Lazy.force K.lab_coarse in
  let nrows = Acq_data.Dataset.nrows ds in
  let domains = Acq_data.Schema.domains (Acq_data.Dataset.schema ds) in
  let n = Array.length domains in
  let rng = Rng.create 771 in
  let probes =
    Array.init 1024 (fun _ ->
        let a = Rng.int rng n in
        let k = domains.(a) in
        let lo = Rng.int rng k in
        let hi = lo + Rng.int rng (k - lo) in
        (a, Acq_plan.Range.make lo hi))
  in
  let closure_est = Acq_prob.Estimator.empirical ds in
  let dense_b = B.dense ds in
  let time_ns reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    (Unix.gettimeofday () -. t0)
    *. 1e9
    /. float_of_int (reps * Array.length probes)
  in
  let sink = ref 0.0 in
  let closure_ns =
    time_ns 8 (fun () ->
        Array.iter
          (fun (a, r) ->
            sink := !sink +. closure_est.Acq_prob.Estimator.range_prob a r)
          probes)
  in
  let dense_ns =
    time_ns 2048 (fun () ->
        Array.iter (fun (a, r) -> sink := !sink +. B.range_prob dense_b a r) probes)
  in
  let speedup = if dense_ns > 0.0 then closure_ns /. dense_ns else infinity in
  (* Paranoia: the two paths must agree before we compare their speed. *)
  Array.iter
    (fun (a, r) ->
      let c = closure_est.Acq_prob.Estimator.range_prob a r in
      let d = B.range_prob dense_b a r in
      if Float.abs (c -. d) > 1e-9 then
        failwith
          (Printf.sprintf "dense disagrees with closure on range_prob: %g vs %g"
             c d))
    probes;
  (* -- kernel 2: memo hit rate on an exhaustive 4-attribute workload - *)
  let schema4 =
    Acq_data.Schema.create
      [
        Acq_data.Attribute.discrete ~name:"c0" ~cost:1.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"c1" ~cost:2.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"e0" ~cost:50.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"e1" ~cost:80.0 ~domain:8;
      ]
  in
  let drng = Rng.create 772 in
  let rows4 =
    Array.init 3_000 (fun _ ->
        let base = Rng.int drng 8 in
        [|
          base;
          (base + Rng.int drng 3) mod 8;
          (base + Rng.int drng 2) mod 8;
          Rng.int drng 8;
        |])
  in
  let ds4 = Acq_data.Dataset.create schema4 rows4 in
  let qrng = Rng.create 773 in
  let queries =
    List.init prob_memo_queries (fun _ ->
        let pred attr =
          let lo = Rng.int qrng 6 in
          let hi = lo + 1 + Rng.int qrng (7 - lo) in
          Acq_plan.Predicate.inside ~attr ~lo ~hi
        in
        Acq_plan.Query.create schema4 [ pred 0; pred 1; pred 2; pred 3 ])
  in
  let costs4 = Acq_data.Schema.costs schema4 in
  let options =
    { K.opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
  in
  let run_workload backend =
    List.map
      (fun q ->
        let r = P.plan_with_backend ~options P.Exhaustive q ~costs:costs4 backend in
        (Acq_plan.Serialize.encode r.P.plan, r.P.est_cost))
      queries
  in
  let plain = run_workload (B.empirical ds4) in
  let m = Acq_obs.Metrics.create () in
  let obs = Acq_obs.Telemetry.create ~metrics:m () in
  let memoized =
    run_workload
      (B.of_dataset ~telemetry:obs
         ~spec:{ B.kind = B.Empirical; memoize = true }
         ds4)
  in
  let identical =
    List.for_all2
      (fun (e1, c1) (e2, c2) -> Bytes.equal e1 e2 && Float.equal c1 c2)
      plain memoized
  in
  let snap = Acq_obs.Metrics.snapshot m in
  let counter prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then acc +. v
        else acc)
      0.0 snap
  in
  let hits = counter "acqp_prob_memo_hits_total" in
  let misses = counter "acqp_prob_memo_misses_total" in
  let hit_rate = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "range_prob",
          J.Obj
            [
              ("dataset", J.Str "lab-coarse");
              ("rows", J.Num (float_of_int nrows));
              ("probes", J.Num (float_of_int (Array.length probes)));
              ("closure_ns_per_query", J.Num closure_ns);
              ("dense_ns_per_query", J.Num dense_ns);
              ("speedup", J.Num speedup);
            ] );
        ( "memo",
          J.Obj
            [
              ("workload", J.Str "exhaustive-4attr");
              ("queries", J.Num (float_of_int prob_memo_queries));
              ("hits", J.Num hits);
              ("misses", J.Num misses);
              ("hit_rate", J.Num hit_rate);
              ("plans_identical_with_memo", J.Bool identical);
            ] );
        ( "summary",
          J.Obj
            [
              ("dense_speedup", J.Num speedup);
              ("memo_hit_rate", J.Num hit_rate);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote probability-backend results to %s (dense range_prob %.0fx over the \
     closure path, memo hit rate %.2f, plans identical=%b)\n"
    path speedup hit_rate identical

(* ------------------------------------------------------------------ *)
(* Compiled-executor bench: the garden5 workload's Eq.-4 cost sweeps
   run on the tree interpreter vs the compiled flat automaton over a
   hoisted columnar snapshot (the batch executor's streaming shape).
   BENCH_exec.json records per-path tuples/sec and the headline
   compiled-vs-tree speedup, plus a byte-identity re-check on the
   benchmark instance: both paths must report Float.equal sweep
   averages and identical per-tuple verdict/cost/acquisition-order on
   a row prefix. The checked-in schema (bench/BENCH_exec.schema.json)
   pins the shape and the speedup floor. *)

let exec_queries = 6
let exec_parity_rows = 256

let write_exec_json path =
  let module P = Acq_core.Planner in
  let module Rng = Acq_util.Rng in
  let module E = Acq_plan.Executor in
  let garden5 = Lazy.force K.garden5 in
  let train, test = Acq_data.Dataset.split_by_time garden5 ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema garden5 in
  let costs = Acq_data.Schema.costs schema in
  let options =
    {
      K.opts with
      split_points_per_attr = 4;
      candidate_attrs = Some (K.cheap garden5);
    }
  in
  let rng = Rng.create 911 in
  let plans =
    List.init exec_queries (fun _ ->
        let q = Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5 in
        (q, (P.plan ~options P.Heuristic q ~train).P.plan))
  in
  let nrows = Acq_data.Dataset.nrows test in
  let batches =
    List.map
      (fun (q, p) ->
        Acq_exec.Batch.create ~costs (Acq_exec.Compile.compile q p))
      plans
  in
  (* Parity before speed: sweep averages Float.equal, and per-tuple
     outcomes identical on the prefix. *)
  let outcome_equal (a : E.outcome) (b : E.outcome) =
    a.E.verdict = b.E.verdict
    && Float.equal a.E.cost b.E.cost
    && a.E.acquired = b.E.acquired
  in
  let identical =
    List.for_all2
      (fun (q, p) b ->
        Float.equal
          (E.average_cost q ~costs p test)
          (Acq_exec.Batch.average_cost b test)
        &&
        let ok = ref true in
        for r = 0 to min exec_parity_rows nrows - 1 do
          let row = Acq_data.Dataset.row test r in
          if
            not
              (outcome_equal
                 (E.run_tuple q ~costs p row)
                 (Acq_exec.Batch.run_tuple b row))
          then ok := false
        done;
        !ok)
      plans batches
  in
  let sink = ref 0.0 in
  (* Best-of-3 trials per path: throughput is a max-estimator's game —
     transient load only ever slows a trial down. *)
  let tuples_per_sec reps f =
    let trial () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt <= 0.0 then infinity
      else float_of_int (reps * nrows * exec_queries) /. dt
    in
    let best = ref 0.0 in
    for _ = 1 to 3 do
      best := Float.max !best (trial ())
    done;
    !best
  in
  let tree_tps =
    tuples_per_sec 30 (fun () ->
        List.iter
          (fun (q, p) -> sink := !sink +. E.average_cost q ~costs p test)
          plans)
  in
  let compiled_tps =
    tuples_per_sec 300 (fun () ->
        List.iter
          (fun b -> sink := !sink +. Acq_exec.Batch.average_cost b test)
          batches)
  in
  let speedup = if tree_tps > 0.0 then compiled_tps /. tree_tps else 0.0 in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "workload",
          J.Obj
            [
              ("dataset", J.Str "garden5");
              ("planner", J.Str "heuristic");
              ("queries", J.Num (float_of_int exec_queries));
              ("rows", J.Num (float_of_int nrows));
            ] );
        ( "throughput",
          J.Obj
            [
              ("tree_tuples_per_sec", J.Num tree_tps);
              ("compiled_tuples_per_sec", J.Num compiled_tps);
              ("speedup", J.Num speedup);
            ] );
        ( "parity",
          J.Obj
            [
              ("identical", J.Bool identical);
              ( "checked_rows",
                J.Num (float_of_int (min exec_parity_rows nrows)) );
            ] );
        ( "summary",
          J.Obj
            [ ("exec_speedup", J.Num speedup); ("identical", J.Bool identical) ]
        );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote compiled-executor results to %s (compiled %.1fx over tree on \
     garden5, %.2e vs %.2e tuples/sec, identical=%b)\n"
    path speedup compiled_tps tree_tps identical

(* ------------------------------------------------------------------ *)
(* Audit bench: three claims, each pinned by the checked-in schema
   (bench/BENCH_audit.schema.json).

   1. Overhead: the exec-smoke workload (garden5 Eq.-4 sweeps) with the
      calibration probe attached runs within 1.10x of unaudited on the
      compiled path — the batched-flush design bound.
   2. Identity: audited and unaudited execution are byte-identical
      (sweep averages Float.equal, per-tuple verdict/cost/acquisition
      order equal) on both execution paths.
   3. Calibration ordering: on a correlated synthetic workload the
      pooled calibration gap ranks the estimators the paper's ablation
      predicts — independence (correlation-blind) worst, Chow-Liu
      between, dense (exact joint on its own data) ~0 — plus a regret
      assessment showing the independence-planned plan pays realized
      regret against the replanned arms. *)

let audit_queries = 6
let audit_parity_rows = 256
let audit_calib_queries = 8

let write_audit_json path =
  let module P = Acq_core.Planner in
  let module B = Acq_prob.Backend in
  let module Rng = Acq_util.Rng in
  let module E = Acq_plan.Executor in
  let module Cal = Acq_audit.Calibration in
  (* -- overhead + identity on the exec-smoke workload ---------------- *)
  let garden5 = Lazy.force K.garden5 in
  let train, test = Acq_data.Dataset.split_by_time garden5 ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema garden5 in
  let costs = Acq_data.Schema.costs schema in
  let options =
    {
      K.opts with
      split_points_per_attr = 4;
      candidate_attrs = Some (K.cheap garden5);
    }
  in
  let rng = Rng.create 921 in
  let plans =
    List.init audit_queries (fun _ ->
        let q = Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5 in
        (q, (P.plan ~options P.Heuristic q ~train).P.plan))
  in
  let nrows = Acq_data.Dataset.nrows test in
  let prepared mode =
    List.map (fun (q, p) -> Acq_exec.Runner.prepare ~mode q ~costs p) plans
  in
  let tree_prep = prepared Acq_exec.Mode.Tree in
  let comp_prep = prepared Acq_exec.Mode.Compiled in
  let probes =
    List.map
      (fun (q, p) -> Acq_exec.Probe.create (Acq_exec.Compile.compile q p))
      plans
  in
  let outcome_equal (a : E.outcome) (b : E.outcome) =
    a.E.verdict = b.E.verdict
    && Float.equal a.E.cost b.E.cost
    && a.E.acquired = b.E.acquired
  in
  let identical_on prep =
    List.for_all2
      (fun p probe ->
        Acq_exec.Probe.reset probe;
        Float.equal
          (Acq_exec.Runner.average_cost_prepared p test)
          (Acq_exec.Runner.average_cost_prepared ~probe p test)
        &&
        let ok = ref true in
        for r = 0 to min audit_parity_rows nrows - 1 do
          let row = Acq_data.Dataset.row test r in
          if
            not
              (outcome_equal
                 (Acq_exec.Runner.run_tuple p row)
                 (Acq_exec.Runner.run_tuple ~probe p row))
          then ok := false
        done;
        !ok)
      prep probes
  in
  let identical = identical_on tree_prep && identical_on comp_prep in
  let sink = ref 0.0 in
  let sweep ~probed prep =
    List.iter2
      (fun p probe ->
        let probe = if probed then Some probe else None in
        sink :=
          !sink +. Acq_exec.Runner.average_cost_prepared ?probe p test)
      prep probes
  in
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Float.max 1e-9 (Unix.gettimeofday () -. t0)
  in
  (* Paired back-to-back trials, min ratio: machine noise that slows
     one side of a pair inflates the ratio, never deflates both, so
     the min over rounds is the clean estimate of the true probe
     overhead. Throughputs are reported from the fastest round. *)
  let paired reps prep =
    let off = fun () -> sweep ~probed:false prep in
    let on = fun () -> sweep ~probed:true prep in
    ignore (time 1 off);
    ignore (time 1 on);
    let best_ratio = ref infinity and t_off = ref infinity and t_on = ref infinity in
    for _ = 1 to 7 do
      let a = time reps off in
      let b = time reps on in
      t_off := Float.min !t_off a;
      t_on := Float.min !t_on b;
      best_ratio := Float.min !best_ratio (b /. a)
    done;
    let tps t = float_of_int (reps * nrows * audit_queries) /. t in
    (tps !t_off, tps !t_on, !best_ratio)
  in
  let comp_off, comp_on, compiled_slowdown = paired 120 comp_prep in
  let tree_off, tree_on, tree_slowdown = paired 12 tree_prep in
  (* -- calibration ordering on a correlated 4-attribute problem ------ *)
  let schema4 =
    Acq_data.Schema.create
      [
        Acq_data.Attribute.discrete ~name:"c0" ~cost:1.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"c1" ~cost:2.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"e0" ~cost:50.0 ~domain:8;
        Acq_data.Attribute.discrete ~name:"e1" ~cost:80.0 ~domain:8;
      ]
  in
  let drng = Rng.create 922 in
  let rows4 =
    Array.init 3_000 (fun _ ->
        let base = Rng.int drng 8 in
        [|
          base;
          (base + Rng.int drng 2) mod 8;
          (base + Rng.int drng 2) mod 8;
          (base + Rng.int drng 3) mod 8;
        |])
  in
  let ds4 = Acq_data.Dataset.create schema4 rows4 in
  let costs4 = Acq_data.Schema.costs schema4 in
  let qrng = Rng.create 923 in
  let queries4 =
    List.init audit_calib_queries (fun _ ->
        let pred attr =
          let lo = Rng.int qrng 5 in
          let hi = lo + 1 + Rng.int qrng (7 - lo) in
          Acq_plan.Predicate.inside ~attr ~lo ~hi
        in
        Acq_plan.Query.create schema4 [ pred 0; pred 1; pred 2; pred 3 ])
  in
  let options4 = { K.opts with split_points_per_attr = 2 } in
  let names4 = Acq_data.Schema.names schema4 in
  let backends =
    List.map
      (fun (name, kind) ->
        (name, B.of_dataset ~spec:{ B.kind; memoize = false } ds4))
      [
        ("independence", B.Independence);
        ("chow-liu", B.Chow_liu);
        ("dense", B.Dense);
      ]
  in
  let trackers = List.map (fun (name, _) -> (name, Cal.create names4)) backends in
  List.iter
    (fun q ->
      (* One fixed plan per query (empirical-planned) executes once;
         each backend is then judged on its own predictions for that
         same plan against the shared observed counts. *)
      let plan =
        (P.plan_with_backend ~options:options4 P.Heuristic q ~costs:costs4
           (B.empirical ds4))
          .P.plan
      in
      let auto = Acq_exec.Compile.compile q plan in
      let probe = Acq_exec.Probe.create auto in
      let prep =
        Acq_exec.Runner.prepare ~mode:Acq_exec.Mode.Compiled q ~costs:costs4
          plan
      in
      ignore (Acq_exec.Runner.average_cost_prepared ~probe prep ds4 : float);
      List.iter2
        (fun (_, backend) (_, tracker) ->
          let predictions =
            Acq_audit.Recorder.predictions q ~backend plan
              ~n_nodes:(Acq_exec.Compile.n_nodes auto)
          in
          Cal.absorb_nodes tracker auto ~predictions
            ~visits:(Acq_exec.Probe.visits probe)
            ~hits:(Acq_exec.Probe.hits probe))
        backends trackers)
    queries4;
  let errs =
    List.map (fun (name, t) -> (name, Cal.calibration_error t)) trackers
  in
  let indep_err = List.assoc "independence" errs in
  let cl_err = List.assoc "chow-liu" errs in
  let dense_err = List.assoc "dense" errs in
  let independence_gt_chow_liu = indep_err > cl_err in
  let chow_liu_ge_dense = cl_err >= dense_err -. 1e-9 in
  let ordering_holds = independence_gt_chow_liu && chow_liu_ge_dense in
  (* -- regret: price the independence-planned plan against the arms -- *)
  let regret_q = List.hd queries4 in
  let indep_plan =
    (P.plan_with_backend ~options:options4 P.Heuristic regret_q ~costs:costs4
       (List.assoc "independence" backends))
      .P.plan
  in
  let regret =
    Acq_audit.Regret.assess ~options:options4 ~current_plan:indep_plan
      regret_q ~costs:costs4 ds4
  in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "workload",
          J.Obj
            [
              ("dataset", J.Str "garden5");
              ("planner", J.Str "heuristic");
              ("queries", J.Num (float_of_int audit_queries));
              ("rows", J.Num (float_of_int nrows));
            ] );
        ( "overhead",
          J.Obj
            [
              ("compiled_off_tuples_per_sec", J.Num comp_off);
              ("compiled_on_tuples_per_sec", J.Num comp_on);
              ("compiled_slowdown", J.Num compiled_slowdown);
              ("tree_off_tuples_per_sec", J.Num tree_off);
              ("tree_on_tuples_per_sec", J.Num tree_on);
              ("tree_slowdown", J.Num tree_slowdown);
            ] );
        ( "identity",
          J.Obj
            [
              ("identical", J.Bool identical);
              ( "checked_rows",
                J.Num (float_of_int (min audit_parity_rows nrows)) );
            ] );
        ( "calibration",
          J.Obj
            [
              ("dataset", J.Str "synthetic-4attr-correlated");
              ("queries", J.Num (float_of_int audit_calib_queries));
              ("independence_error", J.Num indep_err);
              ("chow_liu_error", J.Num cl_err);
              ("dense_error", J.Num dense_err);
              ( "ordering",
                J.Obj
                  [
                    ( "independence_gt_chow_liu",
                      J.Bool independence_gt_chow_liu );
                    ("chow_liu_ge_dense", J.Bool chow_liu_ge_dense);
                  ] );
            ] );
        ( "regret",
          J.Obj
            [
              ("rows", J.Num (float_of_int regret.Acq_audit.Regret.rows));
              ( "current_realized",
                J.Num regret.Acq_audit.Regret.current_realized );
              ("regret", J.Num regret.Acq_audit.Regret.regret);
              ("regret_ratio", J.Num regret.Acq_audit.Regret.regret_ratio);
              ( "arms",
                J.Arr
                  (List.map
                     (fun (a : Acq_audit.Regret.assessment) ->
                       J.Obj
                         [
                           ("arm", J.Str a.Acq_audit.Regret.arm.Acq_audit.Regret.name);
                           ("planned", J.Bool a.Acq_audit.Regret.planned);
                           ( "realized_cost",
                             J.Num a.Acq_audit.Regret.realized_cost );
                         ])
                     regret.Acq_audit.Regret.assessments) );
            ] );
        ( "summary",
          J.Obj
            [
              ("audit_overhead", J.Num compiled_slowdown);
              ("identical", J.Bool identical);
              ("calibration_ordering_holds", J.Bool ordering_holds);
              ("regret_ratio", J.Num regret.Acq_audit.Regret.regret_ratio);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote audit results to %s (audit overhead %.3fx compiled / %.3fx tree, \
     identical=%b, calibration gap indep %.4f > chow-liu %.4f >= dense %.4f \
     = %b, regret ratio %.3fx)\n"
    path compiled_slowdown tree_slowdown identical indep_err cl_err dense_err
    ordering_holds regret.Acq_audit.Regret.regret_ratio

(* ------------------------------------------------------------------ *)
(* Serving-daemon bench: the acqpd stack (engine + select-loop server
   + load generator) co-driven in one process over a real Unix socket.

   1. Identity: the daemon's RUN payload must be byte-identical to the
      one-shot CLI rendering of the same (spec, query, options) — the
      serving-path contract.
   2. Scale: 50 connections x 21 SUBSCRIBEs = 1050 concurrent
      continuous sessions (with malformed clients mixed in), events
      flowing, then a graceful drain that BYEs every client.
   3. Throughput: a ping-only workload measuring request/response
      round-trips per second through the full parse/dispatch/frame
      path; the schema pins a floor of 2000 rps — two orders of
      magnitude under the measured rate, so only a broken event loop
      trips it.

   The checked-in schema (bench/BENCH_serve.schema.json) pins the
   shape, the >= 1000 session floor, identity, clean drain, and the
   rps floor. *)

let serve_spec = { Acq_serve.Source.kind = Acq_serve.Source.Lab; rows = 400; seed = 42 }

let serve_socket name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let write_serve_json path =
  let module Sv = Acq_serve in
  let spec = serve_spec in
  let chatty = Sv.Source.chatty_sql spec.Sv.Source.kind in
  (* -- 1. RUN byte-identity against the one-shot CLI rendering ------ *)
  let expected =
    let history, live = Sv.Source.history_live spec in
    let schema = Acq_data.Dataset.schema history in
    match Acq_sql.Catalog.compile_result schema chatty with
    | Error e -> failwith ("serve bench query failed to compile: " ^ e)
    | Ok c ->
        fst
          (Sv.Oneshot.run_to_string ~algorithm:Acq_core.Planner.Heuristic
             ~history ~live c.Acq_sql.Catalog.query)
  in
  let run_identity =
    match
      Sv.Engine.run (Sv.Engine.create spec) ~tenant:"bench" Sv.Protocol.no_opts
        chatty
    with
    | Ok text -> String.equal text expected
    | Error _ -> false
  in
  (* -- 2. scale + drain over a real Unix socket --------------------- *)
  let limits =
    { Sv.Limits.default with Sv.Limits.max_sessions_per_tenant = 1_100 }
  in
  let sock = serve_socket "acqpd_bench_scale.sock" in
  let engine = Sv.Engine.create ~limits spec in
  let server =
    Sv.Server.create ~unix_path:sock
      ~listeners:[ Sv.Server.listen_unix sock ]
      engine limits
  in
  let connect_to path () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let scale_config =
    {
      Sv.Loadgen.connections = 50;
      subscriptions_per_conn = 21;
      pings_per_conn = 2;
      runs_per_conn = 0;
      tenants = 5;
      malformed = 3;
      slow = 0;
      events_target = max_int;  (* park in soak until the drain BYEs *)
      sql = "algo=heuristic " ^ chatty;
    }
  in
  let gen = Sv.Loadgen.create ~config:scale_config (connect_to sock) in
  let max_live = ref 0 in
  let steps = ref 0 in
  let target =
    scale_config.Sv.Loadgen.connections
    * scale_config.Sv.Loadgen.subscriptions_per_conn
  in
  while !max_live < target && !steps < 20_000 do
    Sv.Server.poll ~timeout_ms:0 server;
    ignore (Sv.Loadgen.step ~timeout_ms:1 gen : bool);
    max_live := max !max_live (Sv.Engine.live_subscriptions engine);
    incr steps
  done;
  Sv.Server.request_shutdown server;
  let steps = ref 0 in
  while
    (not (Sv.Server.finished server && Sv.Loadgen.finished gen))
    && !steps < 20_000
  do
    Sv.Server.poll ~timeout_ms:0 server;
    Sv.Server.drain_step ~grace_s:2.0 server;
    ignore (Sv.Loadgen.step ~timeout_ms:1 gen : bool);
    incr steps
  done;
  let clean_drain = Sv.Server.finished server && Sv.Loadgen.finished gen in
  let scale = Sv.Loadgen.report gen in
  Sv.Loadgen.close_all gen;
  Sv.Server.stop server;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (* -- 3. ping throughput on a fresh server ------------------------- *)
  let sock = serve_socket "acqpd_bench_ping.sock" in
  let engine2 = Sv.Engine.create spec in
  let server2 =
    Sv.Server.create ~unix_path:sock
      ~listeners:[ Sv.Server.listen_unix sock ]
      engine2 Sv.Limits.default
  in
  let ping_config =
    {
      Sv.Loadgen.connections = 20;
      subscriptions_per_conn = 0;
      pings_per_conn = 250;
      runs_per_conn = 0;
      tenants = 4;
      malformed = 0;
      slow = 0;
      events_target = 0;
      sql = chatty;
    }
  in
  let gen2 = Sv.Loadgen.create ~config:ping_config (connect_to sock) in
  let steps = ref 0 in
  while (not (Sv.Loadgen.finished gen2)) && !steps < 50_000 do
    Sv.Server.poll ~timeout_ms:0 server2;
    ignore (Sv.Loadgen.step ~timeout_ms:0 gen2 : bool);
    incr steps
  done;
  let ping = Sv.Loadgen.report gen2 in
  Sv.Loadgen.close_all gen2;
  Sv.Server.stop server2;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "workload",
          J.Obj
            [
              ("dataset", J.Str (Sv.Source.kind_to_string spec.Sv.Source.kind));
              ("rows", J.Num (float_of_int spec.Sv.Source.rows));
              ("seed", J.Num (float_of_int spec.Sv.Source.seed));
              ( "connections",
                J.Num (float_of_int scale_config.Sv.Loadgen.connections) );
              ("tenants", J.Num (float_of_int scale_config.Sv.Loadgen.tenants));
            ] );
        ( "sessions",
          J.Obj
            [
              ("concurrent_sessions", J.Num (float_of_int !max_live));
              ("events_delivered", J.Num (float_of_int scale.Sv.Loadgen.events));
              ( "structured_errors",
                J.Num (float_of_int scale.Sv.Loadgen.errors) );
              ("disconnects", J.Num (float_of_int scale.Sv.Loadgen.disconnects));
            ] );
        ( "throughput",
          J.Obj
            [
              ("ping_rps", J.Num ping.Sv.Loadgen.rps);
              ("ping_p99_ms", J.Num ping.Sv.Loadgen.p99_ms);
              ("completed", J.Num (float_of_int ping.Sv.Loadgen.ok));
            ] );
        ("identity", J.Obj [ ("run_identity", J.Bool run_identity) ]);
        ( "drain",
          J.Obj
            [
              ("clean", J.Bool clean_drain);
              ( "bye_delivered",
                J.Num
                  (float_of_int
                     (scale_config.Sv.Loadgen.connections
                     - scale.Sv.Loadgen.disconnects)) );
            ] );
        ( "summary",
          J.Obj
            [
              ("concurrent_sessions", J.Num (float_of_int !max_live));
              ("ping_rps", J.Num ping.Sv.Loadgen.rps);
              ("run_identity", J.Bool run_identity);
              ("clean_drain", J.Bool clean_drain);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote serving-daemon results to %s (%d concurrent sessions, %.0f ping \
     rps, identity=%b, clean_drain=%b)\n"
    path !max_live ping.Sv.Loadgen.rps run_identity clean_drain

(* ------------------------------------------------------------------ *)
(* Sampling bench: the statistical guarantees of the sampled backend
   and the PAC planner arm, measured at bench scale and pinned by the
   checked-in schema (bench/BENCH_sample.schema.json). Four kernels:

   1. Coverage: 200 seeded resamples of a correlated window; the
      Hoeffding interval on a root and on a conditioned estimate must
      cover the exact full-window probability at >= 1 - delta.
   2. Certificate: 200 seeded instances; the PAC plan's (epsilon,
      delta) certificate must hold against the brute-force oracle —
      cost_bound >= true plan cost and cost_bound <= (1 + epsilon) *
      optimum — at >= 0.95 (the schema floor).
   3. Cold data: the expensive-predicate (UDF) workload; the Pac arm
      planning on sampled(1024, 0.001) must match the exact CorrSeq
      plan's live cost on a drifted cold trace within 10% while
      certifying from a strict subsample (samples-drawn ceiling).
   4. Identity: a daemon RUN with model=sampled(...) must be
      byte-identical to the one-shot CLI rendering — the serving-path
      contract extended to the sampled backend. *)

let sample_dataset seed domains rows =
  let n = Array.length domains in
  let rng = Acq_util.Rng.create seed in
  let schema =
    Acq_data.Schema.create
      (List.init n (fun k ->
           Acq_data.Attribute.discrete
             ~name:(Printf.sprintf "a%d" k)
             ~cost:(float_of_int ((k * 3) + 2))
             ~domain:domains.(k)))
  in
  let data =
    Array.init rows (fun _ ->
        let regime = Acq_util.Rng.float rng 1.0 in
        Array.init n (fun k ->
            if Acq_util.Rng.bernoulli rng 0.7 then
              min
                (domains.(k) - 1)
                (int_of_float (regime *. float_of_int domains.(k)))
            else Acq_util.Rng.int rng domains.(k)))
  in
  Acq_data.Dataset.create schema data

let sample_brute_force q ~costs est =
  let module EC = Acq_core.Expected_cost in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (perms (List.filter (fun y -> y <> x) l)))
          l
  in
  let m = Acq_plan.Query.n_predicates q in
  List.fold_left
    (fun best order -> Float.min best (EC.of_order q ~costs est order))
    infinity
    (perms (List.init m Fun.id))

let write_sample_json path =
  let module B = Acq_prob.Backend in
  let module P = Acq_core.Planner in
  let module Pred = Acq_plan.Predicate in
  let module DS = Acq_data.Dataset in
  let module Search = Acq_core.Search in
  (* -- 1. interval coverage over seeded resamples ------------------- *)
  let coverage_trials = 200 in
  let cov_delta = 0.1 in
  let cov_ds = sample_dataset 7 [| 4; 3; 2 |] 4_000 in
  let exact = B.empirical cov_ds in
  let p_root = Pred.inside ~attr:0 ~lo:2 ~hi:3 in
  let p_cond = Pred.inside ~attr:1 ~lo:0 ~hi:1 in
  let truth_root = B.pred_prob exact p_root in
  let truth_cond = B.pred_prob (B.restrict_pred exact p_root true) p_cond in
  let covered = ref 0 and cov_total = ref 0 in
  let check_cover truth (lo, hi) =
    incr cov_total;
    if lo <= truth +. 1e-12 && truth <= hi +. 1e-12 then incr covered
  in
  for seed = 1 to coverage_trials do
    let b = B.sampled ~seed ~n:256 ~delta:cov_delta cov_ds in
    check_cover truth_root (B.pred_prob_ci b p_root);
    check_cover truth_cond
      (B.pred_prob_ci (B.restrict_pred b p_root true) p_cond)
  done;
  let coverage_rate = float_of_int !covered /. float_of_int !cov_total in
  (* -- 2. PAC certificate vs the brute-force oracle ----------------- *)
  let certificate_trials = 200 in
  let holds = ref 0 and partial = ref 0 and max_delta = ref 0.0 in
  for seed = 1 to certificate_trials do
    let domains = [| 3; 2; 2 |] in
    let ds = sample_dataset (100 + seed) domains 400 in
    let schema = DS.schema ds in
    let costs = Acq_data.Schema.costs schema in
    let rng = Acq_util.Rng.create (500 + seed) in
    let preds =
      List.init 3 (fun attr ->
          let d = domains.(attr) in
          let lo = Acq_util.Rng.int rng d in
          let hi = lo + Acq_util.Rng.int rng (d - lo) in
          Pred.inside ~attr ~lo ~hi)
    in
    let q = Acq_plan.Query.create schema preds in
    let plan, _cost, cert =
      Acq_core.Pac.plan ~epsilon_target:0.3 q ~costs
        (B.sampled ~seed ~n:32 ~delta:0.002 ds)
    in
    let exact = B.empirical ds in
    let true_cost = Acq_core.Expected_cost.of_plan q ~costs exact plan in
    let oracle = sample_brute_force q ~costs exact in
    max_delta := Float.max !max_delta cert.Search.delta;
    if cert.Search.samples < DS.nrows ds then incr partial;
    if
      cert.Search.cost_bound >= true_cost -. 1e-9
      && cert.Search.cost_bound
         <= ((1.0 +. cert.Search.epsilon) *. oracle) +. 1e-9
    then incr holds
  done;
  let holds_rate = float_of_int !holds /. float_of_int certificate_trials in
  (* -- 3. cold-data cost on the expensive-predicate workload -------- *)
  let module U = Acq_workload.Udf_gen in
  let p = U.default in
  let udf_rows = 6_000 in
  let train = U.generate (Acq_util.Rng.create 91) p ~rows:udf_rows in
  let cold = U.generate_drifted (Acq_util.Rng.create 92) p ~rows:udf_rows in
  let model = U.cost_model (Acq_util.Rng.create 93) p in
  let q = U.query p in
  let costs = Acq_data.Schema.costs (DS.schema train) in
  let live_cost plan =
    Acq_exec.Runner.average_cost ~model ~mode:Acq_exec.Mode.Compiled q ~costs
      plan cold
  in
  let spec_of name =
    match B.spec_of_string name with
    | Ok sp -> sp
    | Error e -> failwith (B.spec_error_to_string e)
  in
  let udf_options spec =
    {
      P.default_options with
      P.prob_model = spec;
      cost_model = Some model;
      (* Near-tied orders make a 5% certified gap cost the whole
         window; 50% demonstrates early stopping (the ceiling). *)
      pac_epsilon = 0.5;
    }
  in
  let exact_r =
    P.plan ~options:(udf_options (spec_of "empirical")) P.Corr_seq q ~train
  in
  let pac_r =
    P.plan
      ~options:(udf_options (spec_of "sampled(1024,0.001)"))
      P.Pac q ~train
  in
  let exact_cost = live_cost exact_r.P.plan in
  let pac_cost = live_cost pac_r.P.plan in
  let cost_ratio = pac_cost /. Float.max exact_cost 1e-9 in
  let samples_drawn, pac_cert =
    match pac_r.P.stats.Search.certificate with
    | Some c -> (c.Search.samples, Search.certificate_to_string c)
    | None -> (udf_rows, "-")
  in
  (* -- 4. RUN byte-identity under model=sampled --------------------- *)
  let module Sv = Acq_serve in
  let spec = serve_spec in
  let chatty = Sv.Source.chatty_sql spec.Sv.Source.kind in
  let sampled_spec = spec_of "sampled(512,0.01)" in
  let expected =
    let history, live = Sv.Source.history_live spec in
    let schema = Acq_data.Dataset.schema history in
    match Acq_sql.Catalog.compile_result schema chatty with
    | Error e -> failwith ("sample bench query failed to compile: " ^ e)
    | Ok c ->
        fst
          (Sv.Oneshot.run_to_string
             ~options:{ P.default_options with P.prob_model = sampled_spec }
             ~algorithm:P.Pac ~history ~live c.Acq_sql.Catalog.query)
  in
  let daemon_opts =
    {
      Sv.Protocol.planner = Some (Sv.Protocol.Fixed P.Pac);
      model = Some sampled_spec;
      exec = None;
    }
  in
  let run_identity =
    match
      Sv.Engine.run (Sv.Engine.create spec) ~tenant:"bench" daemon_opts chatty
    with
    | Ok text -> String.equal text expected
    | Error _ -> false
  in
  let doc =
    J.Obj
      [
        ("version", J.Num 1.0);
        ( "coverage",
          J.Obj
            [
              ("trials", J.Num (float_of_int !cov_total));
              ("covered", J.Num (float_of_int !covered));
              ("rate", J.Num coverage_rate);
              ("delta", J.Num cov_delta);
            ] );
        ( "certificate",
          J.Obj
            [
              ("trials", J.Num (float_of_int certificate_trials));
              ("holds", J.Num (float_of_int !holds));
              ("rate", J.Num holds_rate);
              ("max_delta", J.Num !max_delta);
              ("partial_trials", J.Num (float_of_int !partial));
            ] );
        ( "cold_data",
          J.Obj
            [
              ("rows", J.Num (float_of_int udf_rows));
              ("empirical_live_cost", J.Num exact_cost);
              ("sampled_live_cost", J.Num pac_cost);
              ("cost_ratio", J.Num cost_ratio);
              ("samples_drawn", J.Num (float_of_int samples_drawn));
              ("certificate", J.Str pac_cert);
            ] );
        ("identity", J.Obj [ ("run_identity", J.Bool run_identity) ]);
        ( "summary",
          J.Obj
            [
              ("coverage_rate", J.Num coverage_rate);
              ("certificate_holds_rate", J.Num holds_rate);
              ("cold_cost_ratio", J.Num cost_ratio);
              ("samples_drawn", J.Num (float_of_int samples_drawn));
              ("run_identity", J.Bool run_identity);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote sampling results to %s (coverage %.3f, certificate holds %.3f, \
     cold ratio %.3f, %d samples drawn, identity=%b)\n"
    path coverage_rate holds_rate cost_ratio samples_drawn run_identity

let run_micro () =
  print_endline "\n== Bechamel micro-benchmarks (one kernel per experiment) ==";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t = Acq_util.Tbl.create [ "kernel"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let time_ns =
            match Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          let pretty =
            if Float.is_nan time_ns then "n/a"
            else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
            else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          let r2 =
            match Analyze.OLS.r_square est with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          Acq_util.Tbl.add_row t [ Test.Elt.name elt; pretty; r2 ])
        (Test.elements test))
    K.tests;
  Acq_util.Tbl.print t

(* The writer of section [section]'s [BENCH_<section>.json]; [races]
   is the portfolio race count of the par section. *)
let writer ~races = function
  | "obs" -> write_obs_json
  | "adapt" -> write_adapt_json
  | "par" -> write_par_json ~races
  | "prob" -> write_prob_json
  | "exec" -> write_exec_json
  | "audit" -> write_audit_json
  | "serve" -> write_serve_json
  | "sample" -> write_sample_json
  | section -> invalid_arg ("no bench section " ^ section)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let micro_only = List.mem "--micro" args in
  let no_micro = List.mem "--no-micro" args in
  let list = List.mem "--list" args in
  let sections = Bench_sections.all in
  let validate_target =
    let rec find section = function
      | f :: path :: _ when f = "--validate-" ^ section -> Some (section, path)
      | _ :: rest -> find section rest
      | [] -> None
    in
    List.find_map (fun section -> find section args) sections
  in
  let smoke =
    List.find_opt (fun section -> List.mem ("--" ^ section ^ "-smoke") args)
      sections
  in
  let ids =
    let rec keep = function
      | f :: _ :: rest when String.starts_with ~prefix:"--validate-" f ->
          keep rest
      | a :: rest ->
          if String.length a > 1 && a.[0] = '-' then keep rest
          else a :: keep rest
      | [] -> []
    in
    keep args
  in
  if list then begin
    List.iter
      (fun e ->
        Printf.printf "%-14s %s\n" e.Acq_workload.Registry.id
          e.Acq_workload.Registry.title)
      Acq_workload.Registry.all;
    Printf.printf
      "flags: --full --micro --no-micro --list, and per section S in {%s}: \
       --S-smoke and --validate-S FILE (every non-list run also writes \
       BENCH_planner_stats.json and BENCH_S.json for every section)\n"
      (String.concat ", " sections)
  end
  else
    match (validate_target, smoke) with
    | Some (section, path), _ -> validate ~section path
    | None, Some section ->
        let path = Bench_sections.result_file section in
        writer ~races:20 section path;
        validate ~section path
    | None, None ->
        if not micro_only then
          Acq_workload.Registry.run_selected
            { Acq_workload.Figures.full; exec = Acq_exec.Mode.Tree }
            ids;
        write_stats_json "BENCH_planner_stats.json";
        List.iter
          (fun section ->
            writer ~races:1 section (Bench_sections.result_file section))
          sections;
        if micro_only || (ids = [] && not no_micro) then run_micro ()
