(* The end-to-end benchmark for acqp and acqpd.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
       [--acqpd EXE] [--daemon-cpu N]

   Runs one workload (oneshot-lab, stream-lab, daemon-mixed) and prints,
   as its last stdout line, one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1. Workload-specific figures are
   printed above it and, with the result, written to
   perfbench/out/<workload>-seed<N>-trace<T>.json. perfbench/run.py
   builds the program and calls this; see perfbench/README.md. *)

open Common

(* Every per-layer metric, in output order. A workload that does not
   drive a layer reports 0 for it: that layer sits idle there. *)
let per_layer =
  let verbs = [ "plan"; "plan_heuristic"; "run"; "ping"; "stats" ] in
  let arms = [ "exhaustive"; "heuristic"; "corrseq"; "pac" ] in
  [
    ("acq_data.generate_ms", "ms");
    ("acq_sql.compile_us", "us");
    ("acq_prob.build_ms", "ms");
    ("acq_prob.calls", "count");
    ("acq_prob.self_ms", "ms");
    ("acq_prob.ns_per_call", "ns");
    ("acq_core.plan_ms", "ms");
    ("acq_core.untraced_plan_ms", "ms");
    ("acq_core.trace_overhead_ms", "ms");
    ("acq_core.search_self_ms", "ms");
    ("acq_core.nodes_solved", "count");
    ("acq_core.calls_per_node", "ratio");
    ("acq_exec.lower_us", "us");
    ("acq_exec.sweep_ms", "ms");
    ("acq_exec.ns_per_session_tuple", "ns");
    ("acq_sensor.replay_ms", "ms");
    ("acq_sensor.epochs", "count");
    ("acq_adapt.replans", "count");
    ("acq_adapt.failed_replans", "count");
    ("acq_adapt.switches", "count");
    ("acq_adapt.replan_nodes", "count");
    ("acq_adapt.replan_tick_ms", "ms");
    ("acq_serve.subscribe_ms", "ms");
    ("acq_serve.alloc_words_per_tick", "words");
  ]
  @ List.map (fun v -> ("acq_serve.handler_ms." ^ v, "ms")) verbs
  @ List.map (fun v -> ("acq_serve.wire_ms." ^ v, "ms")) verbs
  @ [
      ("acq_serve.overloads", "count");
      ("acq_serve.events_delivered_ratio", "ratio");
      ("acq_serve.gen_late_ms.p99", "ms");
    ]
  @ List.map (fun a -> ("acq_par.arm_ms." ^ a, "ms")) arms
  @ [ ("acq_par.arms_finished_ratio", "ratio") ]

let workloads = [ "oneshot-lab"; "stream-lab"; "daemon-mixed" ]

let run_workload ~workload ~seed ~seconds ~trace ~acqpd ~daemon_cpu =
  let tally = tally () in
  (* The two in-process workloads: set up, then measure or trace. *)
  let in_process ~repeats setup measure traced =
    let st, setup_s =
      repeated_setup ~repeats ~discard:ignore (setup ~tally ~seed)
    in
    if trace then (traced ~tally ~seconds st, [])
    else
      let e2e, details = measure ~tally ~seconds st in
      let rss = m "peak_rss_mb" "MiB" (peak_rss_mb "self") in
      ((m "setup_s" "s" setup_s :: e2e) @ [ rss ], details)
  in
  let metrics, details =
    match workload with
    | "oneshot-lab" ->
        (* a set-up here takes about 0.3 s, one of stream-lab about 5 s *)
        in_process ~repeats:7 Oneshot_lab.setup Oneshot_lab.measure
          Oneshot_lab.trace
    | "stream-lab" ->
        in_process ~repeats:3 Stream_lab.setup Stream_lab.measure
          Stream_lab.trace
    | _ -> Daemon_mixed.run ~tally ~seed ~seconds ~trace ~acqpd ~daemon_cpu
  in
  List.iter
    (fun x ->
      if trace && not (List.mem_assoc x.name per_layer) then
        failwith ("per-layer metric missing from the list: " ^ x.name))
    metrics;
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.name = name) metrics with
          | Some x -> x
          | None -> m name unit_ 0.0)
        per_layer
    else metrics
  in
  let failed_share =
    float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  {
    attempted = tally.attempted;
    failed = tally.failed;
    metrics;
    details = details @ [ m "failed_share" "ratio" failed_share ];
  }

let json_of (r : result) =
  let open Acq_obs.Json in
  let obj ms =
    Obj
      (List.map
         (fun x ->
           (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]))
         ms)
  in
  ( Obj
      [
        ("correct", Bool (r.failed = 0));
        ("attempted", Num (float_of_int r.attempted));
        ("failed", Num (float_of_int r.failed));
        ("metrics", obj r.metrics);
      ],
    obj r.details )

let write_result ~workload ~seed ~trace line details =
  let dir = Filename.concat "perfbench" "out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d.json" workload seed
         (if trace then 1 else 0))
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"result\": %s, \"details\": %s}\n" line details;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and acqpd = ref "_build/default/bin/acqpd.exe" in
  let daemon_cpu = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--acqpd", Arg.Set_string acqpd, "EXE daemon binary for daemon-mixed");
      ("--daemon-cpu", Arg.Set_int daemon_cpu, "N CPU the daemon is pinned to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let r =
    run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
      ~acqpd:!acqpd ~daemon_cpu:!daemon_cpu
  in
  List.iter
    (fun x -> Printf.printf "%-36s %14.4f %s\n" x.name x.value x.unit_)
    (r.details @ r.metrics);
  let line, details = json_of r in
  let line = Acq_obs.Json.to_string line in
  write_result ~workload:!workload ~seed:!seed ~trace line
    (Acq_obs.Json.to_string details);
  print_endline line
