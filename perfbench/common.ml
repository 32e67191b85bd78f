(* Plumbing shared by the workloads: the bench's own monotonic clock,
   percentiles, peak RSS, repeated set-up, and the result record each
   workload fills. Every timing in the benchmark comes from [now_ns];
   no report field of the program is ever read as a time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* [time f] runs [f] and returns its result with the elapsed ms. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_of_ns (now_ns () - t0))

(* Growable float sample buffer: the hot loops record one sample per
   operation and must not allocate a list cell each time. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.data 0 t.n
  let mean t =
    if t.n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 (to_array t) /. float_of_int t.n

  let pct t p =
    if t.n = 0 then 0.0 else Acq_util.Stats.percentile (to_array t) p

  (* The buffer kept under [key] in [tbl], created on first use. *)
  let bucket tbl key =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = create () in
        Hashtbl.replace tbl key s;
        s
end

let median xs =
  if xs = [] then 0.0 else Acq_util.Stats.median (Array.of_list xs)

(* The calibration loop: a fixed piece of work, about two
   milliseconds, that calls nothing of the program, timed every
   [every_ns] while a workload runs. The VM the benchmark was written
   on ran the same code up to 1.7 times slower in phases of seconds to
   minutes; the gated latencies are divided by the median of these
   timings, so that they are in units of the loop's time ("calib") and
   the machine's speed of the moment cancels out. The loop sorts a
   fixed array of floats with the polymorphic compare, which boxes
   every element it reads: the short-lived minor-heap allocation and
   pointer work of ordinary OCaml code. Of the loops tried, this one
   tracked the time of an Engine.tick closely (correlation 0.97 over 60
   stretches of 4 s; a pointer walk through a table and pure
   arithmetic did not). Its allocation dies young and it copies into a
   buffer made once, so it leaves nothing for the major collector and
   the program's heap hardly moves it. *)
module Calib = struct
  let size = 5000

  let base =
    let rng = Acq_util.Rng.create 20050405 in
    Array.init size (fun _ -> Acq_util.Rng.float rng 1.0)

  let work = Array.make size 0.0

  let kernel () =
    Array.blit base 0 work 0 size;
    Array.sort compare work;
    work.(size / 2)

  let every_ns = 100_000_000

  type t = { times : Samples.t; mutable next : int }

  let create () = { times = Samples.create (); next = 0 }

  (* Time the loop once if [every_ns] has passed since the last time.
     True when it ran, so a caller timing back to back restarts its
     clock. *)
  let tick t =
    let t0 = now_ns () in
    if t0 < t.next then false
    else begin
      ignore (Sys.opaque_identity (kernel ()));
      let t1 = now_ns () in
      Samples.add t.times (ms_of_ns (t1 - t0));
      t.next <- t1 + every_ns;
      true
    end

  let median_ms t = Samples.pct t.times 50.0
end

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Set-up runs [repeats] times per run and the median is reported, so
   one slow start does not read as a regression. The last state built
   is the one the measured loop uses; [discard] releases the others,
   and compacting the heap after each returns their memory, so a
   process's peak RSS does not depend on when the collector last ran. *)
let repeated_setup ~repeats ~discard build =
  let rec go i times =
    let st, ms = time build in
    let times = (ms /. 1000.0) :: times in
    if i + 1 < repeats then begin
      discard st;
      Gc.compact ();
      go (i + 1) times
    end
    else (st, median times)
  in
  go 0 []

(* What a workload hands back: counts for the result line, end-to-end
   metrics (tracing off) or per-layer metrics (tracing on), and
   workload-specific figures printed for humans. *)
type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  details : metric list;
}

let m name unit_ value = { name; value; unit_ }

(* Outcome bookkeeping: an operation either passes its output check or
   counts toward [failed]; the first few failures are explained on
   stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then Printf.eprintf "check failed: %s\n%!" what
  end

let plan_digest plan = Digest.to_hex (Digest.bytes (Acq_plan.Serialize.encode plan))

(* The gated latencies of a run: the pooled percentiles of [s], in
   units of the calibration loop's median time. The same figures in
   milliseconds are printed beside them, ungated. *)
let latency_calib calib s =
  let c = Calib.median_ms calib in
  ( [
      m "latency_calib.p50" "calib" (Samples.pct s 50.0 /. c);
      m "latency_calib.p90" "calib" (Samples.pct s 90.0 /. c);
    ],
    [
      m "latency_ms.p50" "ms" (Samples.pct s 50.0);
      m "latency_ms.p90" "ms" (Samples.pct s 90.0);
      m "calib_ms" "ms" c;
    ] )
