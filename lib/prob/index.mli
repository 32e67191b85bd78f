(** Per-attribute cumulative row-set index over a dataset — the
    Section 5.1 structure that lets a planner select each subproblem's
    tuples without rescanning: "the set of indices for the range
    [1, x] is the set for [1, x-1] union the indices for x".

    For every attribute the index keeps, at each of at most
    {!max_cuts} cut values [c], the packed set ({!Bits}) of rows whose
    value is below [c]. The rows of a range [[lo, hi]] whose ends are
    both cuts are then [below (hi+1) \ below lo]: one AND-NOT per
    word. An attribute with fewer than {!max_cuts} values has a cut at
    every value, so every range is exact this way. A wider attribute
    gets equal-frequency cuts plus a value-sorted row permutation, and
    the rows of the partial buckets at a range's ends are added from
    that permutation.

    Memory is linear in rows x attributes whatever the domain size: an
    attribute over [n] rows takes at most
    [max_cuts * (Bits.words n + 1) + 2 * n + 3 * max_cuts] words (the
    [2 * n] only when its domain has at least [max_cuts] values), and
    the index adds 4 words of its own.

    Never mutated after {!build}, so views over it can be shared
    freely across domains. The index copies what it
    needs: later writes to a dataset's cell buffer do not reach it. *)

type t

val max_cuts : int
(** 64. *)

val build : Acq_data.Dataset.t -> t
(** One pass per attribute over the dataset. *)

val mask : t -> attr:int -> lo:int -> hi:int -> Bits.mask
(** Rows whose [attr] lies in [[lo, hi]] (bounds clamped to the
    domain; empty when [lo > hi] after clamping). The mask's arrays
    are the index's own when both ends are cuts (read-only), and one
    fresh array otherwise. *)

val count_in_range : t -> attr:int -> Acq_plan.Range.t -> int
(** Rows of the whole dataset whose [attr] lies in the range. *)

val histogram : t -> attr:int -> int array -> int array
(** [histogram t ~attr bits]: per-value counts of [attr] over the
    rows set in [bits]. *)
