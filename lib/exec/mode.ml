type t = Tree | Compiled

let default = Compiled

let all = [ Tree; Compiled ]

let to_string = function Tree -> "tree" | Compiled -> "compiled"

let of_string = function
  | "tree" -> Ok Tree
  | "compiled" -> Ok Compiled
  | s -> Error (Printf.sprintf "unknown exec mode %S (expected tree|compiled)" s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
