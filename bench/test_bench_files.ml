(* Every bench section's schema ([--validate-X] loads it) and its
   reference result must be in the tree: a missing file means a CI
   gate that cannot run. *)

let test_present file () =
  Alcotest.(check bool) (file ^ " is checked in") true (Sys.file_exists file)

let () =
  Alcotest.run "bench_files"
    (List.map
       (fun section ->
         ( section,
           List.map
             (fun file -> Alcotest.test_case file `Quick (test_present file))
             [
               Bench_sections.schema_file section;
               Bench_sections.result_file section;
             ] ))
       Bench_sections.all)
