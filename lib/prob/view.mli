(** A view is the subset of training tuples consistent with a
    subproblem's ranges — the paper's [D(R_1, ..., R_n)] (Section 5).
    Conditional probabilities for planning are ratios of view sizes.

    A view is a packed row set ({!Bits}) with its popcount, over one
    immutable per-dataset {!Index} that every view derived from it
    shares. A restriction is one AND pass over the words; a count is
    one popcount pass. Views are immutable and hold no cache, so they
    can be read from several domains at once. *)

type t

val of_dataset : Acq_data.Dataset.t -> t
(** All rows; builds the dataset's index. *)

val dataset : t -> Acq_data.Dataset.t

val size : t -> int
(** O(1). *)

val is_empty : t -> bool

val select : t -> int array -> t
(** [select v pos]: the rows at strictly ascending positions [pos]
    (each in [0 .. size v - 1]) of [v] in row order, sharing [v]'s
    index. The sampled backend draws its samples this way. *)

val filter : t -> (int -> bool) -> t
(** Rows of the view whose row id satisfies the test. *)

val restrict_range : t -> attr:int -> Acq_plan.Range.t -> t
(** Rows whose [attr] lies in the range. *)

val restrict_pred : t -> Acq_plan.Predicate.t -> bool -> t
(** Rows on which the predicate evaluates to the given truth value. *)

val histogram : t -> attr:int -> int array
(** Per-value counts of [attr] within the view — the paper's
    "independent normalized histogram of X_i for the data in D(...)"
    (before normalization). *)

val range_count : t -> attr:int -> Acq_plan.Range.t -> int

val range_prob : t -> attr:int -> Acq_plan.Range.t -> float
(** [P(X_attr in range | view)]. 0 on an empty view. *)

val pred_prob : t -> Acq_plan.Predicate.t -> float

val pattern_counts : t -> Acq_plan.Predicate.t array -> int array
(** [pattern_counts v preds] for [m = length preds <= 20]: counts of
    each of the [2^m] truth patterns, bit [j] set when predicate [j]
    is satisfied. This is the rediscretized joint distribution of
    Section 4.1.2 / 5.2. *)

val iter : t -> (int -> unit) -> unit
(** Iterate row ids in ascending order. *)
