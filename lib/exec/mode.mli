(** Execution-path selector, threaded {!Acq_core.Planner.options}-style
    through every layer that executes plans: the sensor runtime, the
    workload harness, adaptive sessions, and the [acqp --exec] flag.

    [Tree] interprets the {!Acq_plan.Plan.t} pointer tree directly
    (the reference semantics); [Compiled] lowers the plan once into a
    flat automaton ({!Compile}) and runs tuples through branch-light
    int arithmetic ({!Batch}). The two are differentially tested to
    agree byte-identically on verdict, cost, and acquisition order. *)

type t = Tree | Compiled

val default : t
(** [Compiled] — byte-identical to [Tree] and faster, so it is the
    default everywhere; the tree interpreter stays selectable per call
    site or via [--exec=tree]. *)

val all : t list

val to_string : t -> string
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
