type column = {
  domain : int;
  exact : bool;  (* a cut at every value *)
  cuts : int array;  (* ascending; cuts.(0) = 0, last = domain *)
  below : int array array;  (* below.(j): rows with value < cuts.(j) *)
  perm : int array;  (* row ids sorted by value; [||] when exact *)
  vals : int array;  (* vals.(i) is the value of row perm.(i) *)
}

type t = { nrows : int; columns : column array }

let max_cuts = 64

(* Equal-frequency cut values for a wide domain: the first value whose
   prefix count reaches each of [max_cuts - 1] row quantiles, with 0
   and [k] as the outer cuts. *)
let quantile_cuts counts n =
  let k = Array.length counts in
  let buckets = max_cuts - 1 in
  let cuts = ref [ 0 ] and below = ref 0 and j = ref 1 in
  for v = 0 to k - 1 do
    (* [below] is the number of rows with value < v. *)
    if v > 0 && !j < buckets && !below * buckets >= !j * n then begin
      cuts := v :: !cuts;
      while !j < buckets && !below * buckets >= !j * n do
        incr j
      done
    end;
    below := !below + counts.(v)
  done;
  Array.of_list (List.rev (k :: !cuts))

let build_column ds attr k =
  let n = Acq_data.Dataset.nrows ds in
  let cells = Acq_data.Dataset.cells ds and stride = Acq_data.Dataset.ncols ds in
  let value r = cells.((r * stride) + attr) in
  let exact = k < max_cuts in
  let counts = if exact then [||] else Array.make k 0 in
  if not exact then
    for r = 0 to n - 1 do
      let v = value r in
      counts.(v) <- counts.(v) + 1
    done;
  let cuts = if exact then Array.init (k + 1) Fun.id else quantile_cuts counts n in
  (* bucket.(v) = j with cuts.(j-1) <= v < cuts.(j). *)
  let bucket = Array.make k 0 in
  let j = ref 0 in
  for v = 0 to k - 1 do
    while cuts.(!j) <= v do
      incr j
    done;
    bucket.(v) <- !j
  done;
  let w = Bits.words n in
  let below = Array.init (Array.length cuts) (fun _ -> Array.make w 0) in
  (* Word by word, so each row's bit is a shift, not a division. *)
  let cell = ref attr in
  for i = 0 to w - 1 do
    for b = 0 to min Bits.width (n - (i * Bits.width)) - 1 do
      let set = below.(bucket.(cells.(!cell))) in
      set.(i) <- set.(i) lor (1 lsl b);
      cell := !cell + stride
    done
  done;
  for j = 1 to Array.length cuts - 1 do
    let cur = below.(j) and prev = below.(j - 1) in
    for i = 0 to w - 1 do
      cur.(i) <- cur.(i) lor prev.(i)
    done
  done;
  let perm, vals =
    if exact then ([||], [||])
    else begin
      (* Counting sort, stable in row id. *)
      let next = Array.make k 0 in
      for v = 1 to k - 1 do
        next.(v) <- next.(v - 1) + counts.(v - 1)
      done;
      let perm = Array.make n 0 and vals = Array.make n 0 in
      for r = 0 to n - 1 do
        let v = value r in
        perm.(next.(v)) <- r;
        vals.(next.(v)) <- v;
        next.(v) <- next.(v) + 1
      done;
      (perm, vals)
    end
  in
  { domain = k; exact; cuts; below; perm; vals }

let build ds =
  let domains = Acq_data.Schema.domains (Acq_data.Dataset.schema ds) in
  {
    nrows = Acq_data.Dataset.nrows ds;
    columns = Array.mapi (build_column ds) domains;
  }

(* First position of [vals] holding a value >= v. *)
let first_at_least vals v =
  let lo = ref 0 and hi = ref (Array.length vals) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if vals.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let mask t ~attr ~lo ~hi =
  let c = t.columns.(attr) in
  let lo = max lo 0 and hi = min hi (c.domain - 1) in
  let empty = c.below.(0) in
  if lo > hi then { Bits.upper = empty; lower = empty }
  else if c.exact then { Bits.upper = c.below.(hi + 1); lower = c.below.(lo) }
  else begin
    let last = Array.length c.cuts - 1 in
    (* jl: first cut >= lo; jh: last cut <= hi + 1. *)
    let jl = ref 0 in
    while c.cuts.(!jl) < lo do
      incr jl
    done;
    let jh = ref last in
    while c.cuts.(!jh) > hi + 1 do
      decr jh
    done;
    let jl = !jl and jh = !jh in
    if jl <= jh && c.cuts.(jl) = lo && c.cuts.(jh) = hi + 1 then
      { Bits.upper = c.below.(jh); lower = c.below.(jl) }
    else begin
      let bits =
        if jl <= jh then
          Array.mapi (fun i u -> u land lnot c.below.(jl).(i)) c.below.(jh)
        else Array.make (Bits.words t.nrows) 0
      in
      let add v0 v1 =
        for i = first_at_least c.vals v0 to first_at_least c.vals v1 - 1 do
          Bits.set bits c.perm.(i)
        done
      in
      if jl <= jh then begin
        add lo c.cuts.(jl);
        add c.cuts.(jh) (hi + 1)
      end
      else add lo (hi + 1);
      { Bits.upper = bits; lower = empty }
    end
  end

let count_in_range t ~attr (r : Acq_plan.Range.t) =
  let all = Bits.full t.nrows in
  Bits.count all (mask t ~attr ~lo:r.lo ~hi:r.hi) ~inside:true

let histogram t ~attr bits =
  let c = t.columns.(attr) in
  if c.exact then Bits.bucket_counts bits c.below
  else begin
    let counts = Array.make c.domain 0 in
    Array.iteri
      (fun i r ->
        if Bits.mem bits r then counts.(c.vals.(i)) <- counts.(c.vals.(i)) + 1)
      c.perm;
    counts
  end
