(** Packed row sets and the word-level kernels over them: bit
    [r mod width] of word [r / width] is row [r]. Bits past the last
    row are always clear, so whole-word AND, OR and popcount never
    count a row that does not exist. Every loop over words lives here,
    next to {!popcount}, so each runs without a call per word. *)

val width : int
(** Rows per word: every bit of an OCaml [int] (63 on 64-bit hosts). *)

val words : int -> int
(** [words n]: words needed for [n] rows. *)

val full : int -> int array
(** Every row of [0 .. n-1]. *)

val popcount : int -> int
val set : int array -> int -> unit
val mem : int array -> int -> bool

val iter : int array -> (int -> unit) -> unit
(** Set rows in ascending order. *)

type mask = { upper : int array; lower : int array }
(** The rows set in [upper] and clear in [lower]. *)

val count : int array -> mask -> inside:bool -> int
(** Rows of the set that lie in the mask ([inside]) or outside it. *)

val inter : int array -> mask -> inside:bool -> int array * int
(** The same rows as a fresh set, with their count. *)

val pattern_counts : int array -> (mask * bool) array -> int array
(** [pattern_counts s tests] for [m = length tests]: the rows of [s]
    counted by their [2^m] truth patterns, bit [j] set when the row's
    membership in mask [j] equals polarity [j]. *)

val bucket_counts : int array -> int array array -> int array
(** [bucket_counts s below] for nested sets [below.(0) ⊆ below.(1) ⊆
    ...], the first empty and the last holding every row of [s]: the
    rows of [s] in each [below.(j+1) \ below.(j)]. *)
