(* daemon-mixed: a child `acqpd serve` on a small synthetic spec, driven
   over a Unix socket by this process on at most 2 pipelined
   connections. Open loop: requests arrive at seeded times on a ladder
   of offered rates and are timed from when they were due, so a stall
   in the daemon's single select loop shows up in every request queued
   behind it. The mix is PLAN (default portfolio), PLAN algo=heuristic,
   RUN, PING and STATS, while a standing SUBSCRIBE on Source.chatty_sql
   streams EVENT frames back through the write path.

   Synthetic data keeps a portfolio PLAN (Exhaustive arm included)
   well under a second; on lab at 20k rows the Exhaustive arm runs
   until its node budget is gone. *)

open Common
module Pr = Acq_serve.Protocol
module E = Acq_serve.Engine
module P = Acq_core.Planner
module Pf = Acq_par.Portfolio

let rows = 2000
let connections = 2
(* Standing chatty SUBSCRIBEs, all on the first connection: enough to
   keep the write path busy without making the client's reading the
   bottleneck of every reply. *)
let subscriptions = 1

(* The offered-rate ladder, requests per second, and each rung's share
   of the run. The first [reported_rungs] stay below saturation: their
   requests make up the reported latencies, where latency is a property
   of the code rather than of a backlog, so they get most of the time,
   split into [rounds] passes up the low ladder so that a slow stretch
   of the machine falls on every rate alike. The short top rungs then
   probe for the rate at which the daemon stops keeping up. *)
let ladder = [| 10.0; 20.0; 30.0; 60.0; 120.0 |]
let share = [| 0.2; 0.3; 0.3; 0.1; 0.1 |]
let reported_rungs = 3
let rounds = 3

(* A stretch of the schedule at one rate: [round] is -1 for the probe
   rungs; times are fractions of the run. *)
type slot = { rung : int; round : int; start : float; len : float }

let slots =
  let reported =
    List.concat_map
      (fun round ->
        List.init reported_rungs (fun rung ->
            (rung, round, share.(rung) /. float_of_int rounds)))
      (List.init rounds Fun.id)
  in
  let probes =
    List.init
      (Array.length ladder - reported_rungs)
      (fun i -> (reported_rungs + i, -1, share.(reported_rungs + i)))
  in
  let start = ref 0.0 in
  List.map
    (fun (rung, round, len) ->
      let sl = { rung; round; start = !start; len } in
      start := !start +. len;
      sl)
    (reported @ probes)

(* The limit behind max_rate_rps: a rung holds when PING p99 and RUN
   p90 stay under it and the backlog left at the rung's end is below
   half a second of offered work. *)
let limit_ms = 500.0

(* The mix, as a fixed cycle of 20 slots: 1 portfolio PLAN, 1
   heuristic PLAN, 16 RUNs, 1 PING and 1 STATS. A fixed cycle keeps the
   share of each verb the same on every seed; the seed picks the
   arrival times and the order of the queries. RUN is four fifths of
   the mix and the cheaper verbs a fifth, so the median and the 90th
   percentile land inside the RUN times (among the 3- and 4-predicate
   queries) rather than on an edge between two kinds of request.

   The reported rungs serve the same cycle with the portfolio PLAN
   replaced by a PING. A portfolio PLAN stalls the select loop
   for 0.1-0.3 s; in an open loop at these rates that puts the 90th
   percentile among requests queued behind a stall, whose wait swings
   by about 30% between identical runs. The probe rungs keep the
   portfolio PLAN, so the stalls still set max_rate_rps, ping_ms.p99
   and plan_ms. *)
let cycle =
  [| "plan"; "run"; "run"; "run"; "run"; "plan_heuristic"; "run"; "run";
     "run"; "run"; "ping"; "run"; "run"; "run"; "run"; "stats"; "run"; "run";
     "run"; "run" |]

let verb_at ~rung i =
  match cycle.(i mod Array.length cycle) with
  | "plan" when rung < reported_rungs -> "ping"
  | v -> v

let verbs = [ "plan"; "plan_heuristic"; "run"; "ping"; "stats" ]

type req = {
  idx : int;
  slot : slot;
  due : int;  (** ns offset from the schedule start *)
  verb : string;
  sql : string;
  line : string;
}

let line_of verb sql =
  match verb with
  | "plan" -> "PLAN " ^ sql
  | "plan_heuristic" -> "PLAN algo=heuristic " ^ sql
  | "run" -> "RUN " ^ sql
  | "ping" -> "PING"
  | _ -> "STATS"

(* Arrivals follow a fixed schedule: within a rung, [rate * length]
   requests evenly spaced, each moved by a seeded jitter of up to a
   quarter of the gap. Seeded Poisson arrivals were tried first: their
   chance collisions set the 90th percentile, which then differed by
   about 20% from seed to seed. Each verb walks the query family on its
   own, so every verb meets the same spread of queries whatever its
   share of the cycle. *)
let schedule rng ~sqls ~seconds =
  let reqs = ref [] and idx = ref 0 in
  let walked = Hashtbl.create 8 in
  List.iter
    (fun slot ->
      let len = slot.len *. seconds in
      let n = int_of_float (ladder.(slot.rung) *. len) in
      let gap = len /. float_of_int n in
      let at =
        Array.init n (fun i ->
            gap *. (float_of_int i +. 0.25 +. Acq_util.Rng.float rng 0.5))
      in
      Array.iter
        (fun t ->
          let verb = verb_at ~rung:slot.rung !idx in
          let k = Option.value ~default:0 (Hashtbl.find_opt walked verb) in
          Hashtbl.replace walked verb (k + 1);
          let sql = sqls.(k mod Array.length sqls) in
          let due = (slot.start *. seconds) +. t in
          reqs :=
            {
              idx = !idx;
              slot;
              due = int_of_float (due *. 1e9);
              verb;
              sql;
              line = line_of verb sql;
            }
            :: !reqs;
          incr idx)
        at)
    slots;
  Array.of_list (List.rev !reqs)

(* ------------------------------------------------------------------ *)
(* Client connections *)

type conn = {
  fd : Unix.file_descr;
  reader : Pr.Reader.t;
  mutable out : string;
  pending : (int * (Pr.frame -> unit)) Queue.t;
      (** due time (ns) and reply handler, in send order *)
  mutable alive : bool;
  mutable next_read : int;
      (** ns; a connection carrying the event stream is read at most
          every [event_read_ns], so the client takes events in batches
          instead of waking for every frame *)
}

(* The event stream is drained in batches this far apart. The daemon
   spins on one core while subscriptions are live; reading per frame
   would keep the client busy on the other core and leave no room for
   the OS, which made every latency swing with the machine's other
   load. Batches 5 ms apart were too slow a consumer: the daemon shed
   about a sixth of its events and ran with long output queues, and
   the 90th percentile latency spread by 0.18-0.19 over ten seeds. At
   1 ms it spread by 0.04-0.07 (eight seeds, three sets). *)
let event_read_ns = 1_000_000

type client = {
  conns : conn array;
  mutable events : int;
  mutable overloads : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      Some
        { fd; reader = Pr.Reader.create (); out = ""; pending = Queue.create ();
          alive = true; next_read = 0 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let send c ~due line k =
  c.out <- c.out ^ line ^ "\n";
  Queue.push (due, k) c.pending

let buf = Bytes.create 65536

(* One select round: flush writes, read and dispatch every complete
   frame. Replies pop the connection's oldest pending request. The
   last connection is served first: it carries the requests, and
   reading their replies before the first connection's batch of events
   keeps the client's parsing of that batch out of their latency. *)
let pump cl ~timeout =
  let live = List.filter (fun c -> c.alive) (Array.to_list cl.conns) in
  let now = now_ns () in
  let rd =
    List.filter_map (fun c -> if c.next_read <= now then Some c.fd else None) live
  in
  let timeout =
    if List.length rd < List.length live then
      Float.min timeout (float_of_int event_read_ns /. 1e9)
    else timeout
  in
  let wr =
    List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) live
  in
  match Unix.select rd wr [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd w then begin
            let len = String.length c.out in
            match Unix.single_write_substring c.fd c.out 0 len with
            | n -> c.out <- String.sub c.out n (len - n)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> c.alive <- false
          end;
          if List.mem c.fd r then begin
            let events_before = cl.events in
            let rec drain () =
              match Unix.read c.fd buf 0 (Bytes.length buf) with
              | 0 -> c.alive <- false
              | n ->
                  Pr.Reader.feed c.reader buf 0 n;
                  if n = Bytes.length buf then drain ()
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ()
              | exception Unix.Unix_error _ -> c.alive <- false
            in
            drain ();
            let rec frames () =
              match Pr.Reader.next_frame c.reader with
              | `Frame (Pr.Event _) ->
                  cl.events <- cl.events + 1;
                  frames ()
              | `Frame (Pr.Overload _) ->
                  cl.overloads <- cl.overloads + 1;
                  frames ()
              | `Frame (Pr.Bye _) -> c.alive <- false
              | `Frame f ->
                  (match Queue.take_opt c.pending with
                  | Some (_, k) -> k f
                  | None -> ());
                  frames ()
              | `More -> ()
              | `Bad _ -> c.alive <- false
            in
            frames ();
            if cl.events > events_before then
              c.next_read <- now_ns () + event_read_ns
          end)
        (List.rev live)

let outstanding cl =
  Array.fold_left
    (fun n c -> if c.alive then n + Queue.length c.pending else n)
    0 cl.conns

(* Pump until nothing is pending or [deadline] (ns) passes. *)
let settle cl ~deadline =
  while outstanding cl > 0 && now_ns () < deadline do
    pump cl ~timeout:0.01
  done

(* Send one request and wait for its reply. *)
let call cl c line =
  let reply = ref None in
  send c ~due:(now_ns ()) line (fun f -> reply := Some f);
  let deadline = now_ns () + 30_000_000_000 in
  while !reply = None && c.alive && now_ns () < deadline do
    pump cl ~timeout:0.01
  done;
  !reply

(* ------------------------------------------------------------------ *)
(* The daemon process *)

type daemon = {
  pid : int;
  sock : string;
  client : client;
  subscribe_ms : float list;
}

(* Daemons started and not yet reaped: killed at exit whatever happens,
   so no run leaves a process behind. *)
let children = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_s () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

let stop d =
  Array.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    d.client.conns;
  reap d.pid;
  try Sys.remove d.sock with Sys_error _ -> ()

(* The dataset is fixed, like the lab spec of the other workloads; the
   seed picks the order of the queries and the arrival times. *)
let spec = { Acq_serve.Source.kind = Acq_serve.Source.Synthetic; rows; seed = 42 }
let plan_quota = 1_000_000_000
let launches = ref 0

(* Set-up: start the daemon, connect, HELLO on each connection (tenant
   t<i>), SUBSCRIBE on connection 0, and one warm-up RUN and PLAN. *)
let start ~tally ~acqpd ~daemon_cpu ~warm () =
  let dir = Filename.concat "perfbench" "out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr launches;
  let sock =
    Filename.concat dir
      (Printf.sprintf "acqpd-%d-%d.sock" (Unix.getpid ()) !launches)
  in
  (* The daemon spins while a subscription is live. Pinned to its own
     CPU, away from the client's (run.py pins the bench), it no longer
     trades places with the client, which made the median latency swing
     by about a quarter between runs of the same seed. *)
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process "taskset"
      [| "taskset"; "-c"; string_of_int daemon_cpu; acqpd; "serve";
         "--dataset"; "synthetic"; "--rows"; string_of_int rows;
         "--seed"; string_of_int spec.Acq_serve.Source.seed; "--socket"; sock;
         "--plan-quota"; string_of_int plan_quota |]
      null null null
  in
  Unix.close null;
  children := pid :: !children;
  let deadline = now_s () +. 30.0 in
  let rec dial () =
    match connect sock with
    | Some c -> c
    | None when now_s () < deadline ->
        Unix.sleepf 0.0005;
        dial ()
    | None -> failwith ("acqpd did not open " ^ sock)
  in
  let cl =
    { conns = Array.init connections (fun _ -> dial ()); events = 0; overloads = 0 }
  in
  let ok = function Some (Pr.Reply _) -> true | _ -> false in
  Array.iteri
    (fun i c ->
      attempt tally (ok (call cl c (Printf.sprintf "HELLO t%d" i))) "HELLO")
    cl.conns;
  let subscribe_ms =
    List.init subscriptions (fun _ ->
        let r, ms =
          time (fun () ->
              call cl cl.conns.(0)
                ("SUBSCRIBE "
                ^ Acq_serve.Source.chatty_sql Acq_serve.Source.Synthetic))
        in
        attempt tally (ok r) "SUBSCRIBE";
        ms)
  in
  attempt tally (ok (call cl cl.conns.(0) ("RUN " ^ warm))) "warm-up RUN";
  attempt tally
    (ok (call cl cl.conns.(1) ("PLAN algo=heuristic " ^ warm)))
    "warm-up PLAN";
  { pid; sock; client = cl; subscribe_ms }

(* ------------------------------------------------------------------ *)
(* The measured run *)

type outcome = {
  req : req;
  mutable done_ : bool;
  mutable latency_ms : float;
  mutable late_ms : float;
  mutable ok : bool;
  mutable payload : string;
}

let drive cl reqs =
  let outs =
    Array.map
      (fun req ->
        {
          req;
          done_ = false;
          latency_ms = 0.0;
          late_ms = 0.0;
          ok = false;
          payload = "";
        })
      reqs
  in
  let calib = Calib.create () in
  let t0 = now_ns () in
  let next = ref 0 in
  let n = Array.length reqs in
  (* EVENT frames read while the reported rungs ran, and for how long *)
  let window = ref None in
  while !next < n && Array.exists (fun c -> c.alive) cl.conns do
    let now = now_ns () in
    while !next < n && t0 + reqs.(!next).due <= now do
      let o = outs.(!next) in
      if o.req.slot.round < 0 && !window = None then
        window := Some (cl.events, ms_of_ns (now - t0));
      let due = t0 + o.req.due in
      o.late_ms <- ms_of_ns (now - due);
      send cl.conns.(1) ~due o.req.line (fun f ->
          o.done_ <- true;
          o.latency_ms <- ms_of_ns (now_ns () - due);
          match f with
          | Pr.Reply p ->
              o.ok <- true;
              o.payload <- p
          | _ -> ());
      incr next
    done;
    let wait =
      if !next < n then float_of_int (t0 + reqs.(!next).due - now_ns ()) /. 1e9
      else 0.0
    in
    (* The calibration loop runs only while no request is in flight and
       the next is not due for 5 ms, so it delays no request. *)
    if wait >= 0.005 && outstanding cl = 0 && Calib.tick calib then ()
    else pump cl ~timeout:(Float.max 0.0 (Float.min wait 0.01))
  done;
  let sched_end = now_ns () in
  settle cl ~deadline:(sched_end + 30_000_000_000);
  let window =
    match !window with
    | Some w -> w
    | None -> (cl.events, ms_of_ns (now_ns () - t0))
  in
  (outs, window, calib)

(* EVENT frames the daemon generated: the acqpd_events_total series of
   its METRICS reply, summed over tenants. *)
let daemon_events cl =
  let value line =
    match String.rindex_opt line ' ' with
    | Some i when String.starts_with ~prefix:"acqpd_events_total" line ->
        Option.value ~default:0.0
          (float_of_string_opt
             (String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> 0.0
  in
  match call cl cl.conns.(0) "METRICS" with
  | Some (Pr.Reply text) ->
      List.fold_left
        (fun acc line -> acc +. value line)
        0.0
        (String.split_on_char '\n' text)
  | _ -> 0.0

let samples_of outs pred =
  let s = Samples.create () in
  Array.iter (fun o -> if o.done_ && pred o then Samples.add s o.latency_ms) outs;
  s

(* ------------------------------------------------------------------ *)
(* In-process replay through Engine: the handler time of each request,
   and the portfolio's arms timed one by one. *)

let handle engine tenant line =
  match Pr.parse_request line with
  | Error (code, msg) -> Pr.render (Pr.Failure (code, msg))
  | Ok req ->
      let reply = function
        | Ok p -> Pr.render (Pr.Reply p)
        | Error (code, msg) -> Pr.render (Pr.Failure (code, msg ^ "\n"))
      in
      (match req with
      | Pr.Plan (o, sql) -> reply (E.plan engine ~tenant o sql)
      | Pr.Run (o, sql) -> reply (E.run engine ~tenant o sql)
      | Pr.Stats -> reply (Ok (E.stats engine))
      | Pr.Ping -> Pr.render (Pr.Reply "pong\n")
      | _ -> reply (Error (400, "unexpected request")))

let alg_key a = String.lowercase_ascii (P.algorithm_name a)

let replay ~tally ~outs ~queries =
  let engine =
    E.create
      ~limits:{ Acq_serve.Limits.default with plan_quota_per_tenant = plan_quota }
      spec
  in
  for _ = 1 to subscriptions do
    ignore
      (E.subscribe engine ~tenant:"t0" ~owner:0 Pr.no_opts
         (Acq_serve.Source.chatty_sql Acq_serve.Source.Synthetic))
  done;
  let handler = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      if o.done_ then begin
        (* requests travel on connection 1, tenant t1 *)
        let _, ms = time (fun () -> handle engine "t1" o.req.line) in
        Samples.add (Samples.bucket handler o.req.verb) ms
      end)
    outs;
  let handler_p50 v =
    match Hashtbl.find_opt handler v with Some s -> Samples.pct s 50.0 | None -> 0.0
  in
  let per_verb =
    List.concat_map
      (fun v ->
        let h = handler_p50 v in
        (* client latency below saturation, in the reported rungs; the
           portfolio PLAN is sent only in the probe rungs *)
        let client =
          Samples.pct
            (samples_of outs (fun o ->
                 o.req.verb = v && (v = "plan" || o.req.slot.round >= 0)))
            50.0
        in
        [
          m ("acq_serve.handler_ms." ^ v) "ms" h;
          m ("acq_serve.wire_ms." ^ v) "ms" (client -. h);
        ])
      verbs
  in
  (* Portfolio arms, one race per arm, and the same arms traced. *)
  let history, _ = Acq_serve.Source.history_live spec in
  let options = P.default_options in
  let arm_ms = Hashtbl.create 4 and finished = ref 0 and raced = ref 0 in
  let plan_ms = ref 0.0 and untraced_ms = ref 0.0 and prob_ms = ref 0.0 in
  let build_ms = ref 0.0 and calls = ref 0 and nodes = ref 0 in
  let planned = ref 0 in
  Array.iter
    (fun q ->
      incr planned;
      List.iter
        (fun a ->
          let outcome, ms =
            time (fun () -> Pf.race ~options ~algorithms:[ a ] q ~train:history)
          in
          incr raced;
          let fin =
            List.for_all
              (fun (arm : Pf.arm) -> arm.Pf.status = Pf.Finished)
              outcome.Pf.arms
          in
          if fin then incr finished;
          Samples.add (Samples.bucket arm_ms (alg_key a)) ms;
          if fin then begin
            let r0, u = Traced.plan_untraced ~options a q ~train:history in
            let t = Traced.plan ~options a q ~train:history in
            attempt tally (Traced.same_plan r0 t.Traced.result)
              ("traced " ^ alg_key a ^ " plan differs from untraced");
            untraced_ms := !untraced_ms +. u;
            plan_ms := !plan_ms +. t.Traced.plan_ms;
            prob_ms := !prob_ms +. t.Traced.prob_ms;
            build_ms := !build_ms +. t.Traced.build_ms;
            calls := !calls + t.Traced.calls;
            nodes := !nodes + t.Traced.result.P.stats.Acq_core.Search.nodes_solved
          end)
        Pf.default_algorithms)
    queries;
  let per = float_of_int (max 1 !planned) in
  let arms =
    List.map
      (fun a ->
        m ("acq_par.arm_ms." ^ alg_key a) "ms"
          (Samples.mean (Samples.bucket arm_ms (alg_key a))))
      Pf.default_algorithms
  in
  let compile_us = Samples.create () in
  Array.iter
    (fun q ->
      let sql = Queries.render q in
      let _, ms =
        time (fun () ->
            Acq_sql.Catalog.compile_result (Acq_plan.Query.schema q) sql)
      in
      Samples.add compile_us (ms *. 1000.0))
    queries;
  per_verb @ arms
  @ [
      m "acq_par.arms_finished_ratio" "ratio"
        (float_of_int !finished /. float_of_int (max 1 !raced));
      m "acq_sql.compile_us" "us" (Samples.pct compile_us 50.0);
      m "acq_prob.build_ms" "ms" (!build_ms /. per);
      m "acq_prob.calls" "count" (float_of_int !calls /. per);
      m "acq_prob.self_ms" "ms" (!prob_ms /. per);
      m "acq_prob.ns_per_call" "ns"
        (if !calls > 0 then !prob_ms *. 1e6 /. float_of_int !calls else 0.0);
      m "acq_core.plan_ms" "ms" (!plan_ms /. per);
      m "acq_core.untraced_plan_ms" "ms" (!untraced_ms /. per);
      m "acq_core.trace_overhead_ms" "ms" ((!plan_ms -. !untraced_ms) /. per);
      m "acq_core.search_self_ms" "ms" ((!plan_ms -. !prob_ms) /. per);
      m "acq_core.nodes_solved" "count" (float_of_int !nodes /. per);
      m "acq_core.calls_per_node" "ratio"
        (float_of_int !calls /. float_of_int (max 1 !nodes));
    ]

(* ------------------------------------------------------------------ *)

let run ~tally ~seed ~seconds ~trace ~acqpd ~daemon_cpu =
  let (history, live), generate_ms =
    time (fun () -> Acq_serve.Source.history_live spec)
  in
  let schema = Acq_data.Dataset.schema history in
  let rng = Acq_util.Rng.create seed in
  let queries = Queries.synthetic rng ~schema in
  let sqls = Array.map Queries.render queries in
  Array.iteri
    (fun i q ->
      attempt tally (Queries.binds_back q sqls.(i)) ("SQL round trip " ^ sqls.(i)))
    queries;
  let reqs = schedule rng ~sqls ~seconds in
  let d, setup_s =
    repeated_setup ~repeats:7 ~discard:stop
      (start ~tally ~acqpd ~daemon_cpu ~warm:sqls.(0))
  in
  let cl = d.client in
  let outs, (window_events, window_ms), calib = drive cl reqs in
  let client_events = float_of_int cl.events in
  let served_events = daemon_events cl in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  (* Output checks: every request answered OK; PING says pong; PLAN
     names a winner; RUN is byte-identical to the one-shot path. *)
  let expected = Hashtbl.create 8 in
  let run_report sql =
    match Hashtbl.find_opt expected sql with
    | Some r -> r
    | None ->
        let q = (Acq_sql.Catalog.compile schema sql).Acq_sql.Catalog.query in
        let r =
          Acq_serve.Oneshot.run_to_string ~exec:Acq_exec.Mode.Compiled
            ~algorithm:P.Heuristic ~history ~live q
        in
        Hashtbl.replace expected sql r;
        r
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Array.iter
    (fun o ->
      let ok =
        o.done_ && o.ok
        &&
        match o.req.verb with
        | "ping" -> o.payload = "pong\n"
        | "run" -> o.payload = fst (run_report o.req.sql)
        | "plan" | "plan_heuristic" -> contains o.payload "winner: "
        | _ -> String.starts_with ~prefix:"acqpd: " o.payload
      in
      attempt tally ok (o.req.verb ^ " " ^ o.req.sql))
    outs;
  let by_verb v rung_ok =
    samples_of outs (fun o -> o.req.verb = v && rung_ok o.req.slot.rung)
  in
  let any _ = true and reported_rung r = r < reported_rungs in
  let holds rung =
    let ping = by_verb "ping" (( = ) rung) and run = by_verb "run" (( = ) rung) in
    let rate = ladder.(rung) in
    let backlog =
      Array.fold_left
        (fun n o ->
          (* still unanswered at the end of its slot *)
          let sl = o.req.slot in
          if sl.rung = rung
             && ((not o.done_)
                || (float_of_int o.req.due /. 1e6) +. o.latency_ms
                   > 1000.0 *. seconds *. (sl.start +. sl.len))
          then n + 1
          else n)
        0 outs
    in
    (* per slot: the reported rungs run [rounds] slots each *)
    let backlog = if rung < reported_rungs then backlog / rounds else backlog in
    Samples.pct ping 99.0 <= limit_ms
    && Samples.pct run 90.0 <= limit_ms
    && float_of_int backlog <= 0.5 *. rate
    && Array.for_all (fun o -> o.req.slot.rung <> rung || (o.done_ && o.ok)) outs
  in
  let max_rate =
    Array.fold_left max 0.0
      (Array.mapi (fun i r -> if holds i then r else 0.0) ladder)
  in
  let reported = samples_of outs (fun o -> o.req.slot.round >= 0) in
  (* Mean Eq.-4 acquisition cost per live tuple over the RUN requests,
     from the one-shot reports their payloads were checked against. *)
  let acq_cost =
    let s = Samples.create () in
    Array.iter
      (fun o ->
        if o.req.verb = "run" then
          Samples.add s
            (snd (run_report o.req.sql)).Acq_sensor.Runtime.avg_cost_per_epoch)
      outs;
    Samples.mean s
  in
  let events_per_s = float_of_int window_events /. (window_ms /. 1000.0) in
  let late = Samples.create () in
  Array.iter (fun o -> Samples.add late o.late_ms) outs;
  let details =
    [
      m "ping_ms.p50" "ms" (Samples.pct (by_verb "ping" any) 50.0);
      m "ping_ms.p99" "ms" (Samples.pct (by_verb "ping" any) 99.0);
      m "plan_ms.p50" "ms" (Samples.pct (by_verb "plan" any) 50.0);
      m "plan_ms.p90" "ms" (Samples.pct (by_verb "plan" any) 90.0);
      m "plan_heuristic_ms.p50" "ms"
        (Samples.pct (by_verb "plan_heuristic" reported_rung) 50.0);
      m "run_ms.p50" "ms" (Samples.pct (by_verb "run" reported_rung) 50.0);
      m "run_ms.p90" "ms" (Samples.pct (by_verb "run" reported_rung) 90.0);
      m "events_per_s" "1/s" events_per_s;
      m "max_rate_rps" "1/s" max_rate;
      m "requests" "count" (float_of_int (Array.length outs));
    ]
  in
  if not trace then
    let gated, ms = latency_calib calib reported in
    ( (m "setup_s" "s" setup_s :: gated)
      @ [ m "acq_cost_per_tuple" "cost" acq_cost; m "peak_rss_mb" "MiB" rss ],
      ms @ details )
  else
    (* Each verb walks the family from its start, so the run's first
       portfolio PLANs asked for exactly these queries. *)
    let portfolio_plans =
      Array.fold_left (fun n o -> if o.req.verb = "plan" then n + 1 else n) 0 outs
    in
    let planned = Array.sub queries 0 (min 4 portfolio_plans) in
    ( [
        m "acq_data.generate_ms" "ms" generate_ms;
        m "acq_serve.subscribe_ms" "ms" (median d.subscribe_ms);
        m "acq_serve.overloads" "count" (float_of_int cl.overloads);
        m "acq_serve.events_delivered_ratio" "ratio"
          (if served_events > 0.0 then client_events /. served_events else 0.0);
        m "acq_serve.gen_late_ms.p99" "ms" (Samples.pct late 99.0);
      ]
      @ replay ~tally ~outs ~queries:planned,
      details )
