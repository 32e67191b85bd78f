let width = Sys.int_size

let words n = (n + width - 1) / width

let full n =
  Array.init (words n) (fun i ->
      let m = n - (i * width) in
      if m >= width then -1 else (1 lsl m) - 1)

(* SWAR popcount over all [width] bits; the literals wrap to the low
   [width] bits, which is exactly the per-field mask wanted. The last
   multiply sums the byte counts into the top byte, whose 7 bits hold
   any count up to 63. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let set a r =
  let i = r / width in
  a.(i) <- a.(i) lor (1 lsl (r mod width))

let mem a r = a.(r / width) land (1 lsl (r mod width)) <> 0

let iter a f =
  for i = 0 to Array.length a - 1 do
    let x = ref a.(i) in
    while !x <> 0 do
      let b = !x land - !x in
      f ((i * width) + popcount (b - 1));
      x := !x lxor b
    done
  done

type mask = { upper : int array; lower : int array }

(* XOR with [flip] keeps a mask word (0) or complements it (-1). *)
let flip inside = if inside then 0 else -1

let count s m ~inside =
  let f = flip inside and c = ref 0 in
  for i = 0 to Array.length s - 1 do
    c := !c + popcount (s.(i) land ((m.upper.(i) land lnot m.lower.(i)) lxor f))
  done;
  !c

let inter s m ~inside =
  let f = flip inside and c = ref 0 in
  let out =
    Array.init (Array.length s) (fun i ->
        let x = s.(i) land ((m.upper.(i) land lnot m.lower.(i)) lxor f) in
        c := !c + popcount x;
        x)
  in
  (out, !c)

(* Per word, either split the word's rows into its 2^m truth patterns
   with 2^(m+1) ANDs and popcount each part, or walk its set rows one
   at a time, whichever takes fewer operations at the word's
   popcount. Both count exactly the same rows. *)
let pattern_counts s tests =
  let m = Array.length tests in
  let counts = Array.make (1 lsl m) 0 in
  let upper = Array.map (fun (mk, _) -> mk.upper) tests in
  let lower = Array.map (fun (mk, _) -> mk.lower) tests in
  let flips = Array.map (fun (_, inside) -> flip inside) tests in
  let sat = Array.make m 0 in
  (* Splitting costs about 17 operations per pattern, walking about
     m + 4 per row; past 5 tests walking always wins. *)
  let split_from = if m <= 5 then (17 lsl m) / (m + 4) else max_int in
  let parts = Array.make (1 lsl min m 5) 0 in
  for i = 0 to Array.length s - 1 do
    let x = s.(i) in
    if x <> 0 then begin
      for j = 0 to m - 1 do
        sat.(j) <- (upper.(j).(i) land lnot lower.(j).(i)) lxor flips.(j)
      done;
      if popcount x >= split_from then begin
        parts.(0) <- x;
        for j = 0 to m - 1 do
          let half = 1 lsl j and t = sat.(j) in
          for q = 0 to half - 1 do
            let y = parts.(q) in
            parts.(q + half) <- y land t;
            parts.(q) <- y land lnot t
          done
        done;
        for q = 0 to (1 lsl m) - 1 do
          counts.(q) <- counts.(q) + popcount parts.(q)
        done
      end
      else begin
        let y = ref x in
        while !y <> 0 do
          let b = !y land - !y in
          let q = ref 0 in
          for j = 0 to m - 1 do
            if sat.(j) land b <> 0 then q := !q lor (1 lsl j)
          done;
          counts.(!q) <- counts.(!q) + 1;
          y := !y lxor b
        done
      end
    end
  done;
  counts

(* Count each word's rows below every cut and difference consecutive
   counts. *)
let bucket_counts s below =
  let nb = Array.length below - 1 in
  let counts = Array.make (max nb 0) 0 in
  for i = 0 to Array.length s - 1 do
    let x = s.(i) in
    if x <> 0 then begin
      let prev = ref 0 in
      for j = 0 to nb - 1 do
        let c = popcount (x land below.(j + 1).(i)) in
        counts.(j) <- counts.(j) + c - !prev;
        prev := c
      done
    end
  done;
  counts
