(* The bench harness's sections, in flag precedence order. Section [s]
   is run by [--s-smoke], checked by [--validate-s FILE], writes
   [BENCH_s.json] and is validated against [BENCH_s.schema.json]; the
   schema and a reference result are checked in under bench/. *)
let all = [ "obs"; "adapt"; "par"; "prob"; "exec"; "audit"; "serve"; "sample" ]

let result_file section = Printf.sprintf "BENCH_%s.json" section
let schema_file section = Printf.sprintf "BENCH_%s.schema.json" section
