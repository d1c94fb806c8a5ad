(** Small descriptive-statistics toolkit used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val variance : float list -> float
(** Unbiased sample variance; 0 for lists shorter than two elements. *)

val stddev : float list -> float

val median : float list -> float
(** Median (average of the two middle elements for even lengths). *)

val percentile : float list -> float -> float
(** [percentile l p] is the linearly-interpolated [p]-th percentile,
    [p] in [\[0, 100\]]. *)

val min_max : float list -> float * float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  median : float;
  max : float;
}

val summarize : float list -> summary

type histogram = {
  counts : int array;  (** in-range counts, one cell per bin *)
  under : int;  (** samples strictly below [lo] *)
  over : int;  (** samples strictly above [hi] *)
}

val histogram : bins:int -> lo:float -> hi:float -> float list -> histogram
(** Fixed-width histogram over the closed interval [\[lo, hi\]].
    Out-of-range samples are never silently dropped: they are reported in
    the [under]/[over] outlier cells, so
    [histogram_total (histogram ... values) = List.length values] always
    holds. The upper edge [v = hi] lands in the last bin by construction. *)

val histogram_total : histogram -> int
(** Total number of samples placed, outliers included. *)

val chi_square : observed:int array -> expected_probs:float array -> float
(** Pearson chi-square statistic. Raises [Invalid_argument] on arity
    mismatch, zero observations, or observations in zero-probability
    cells. *)

val chi_square_fits : observed:int array -> expected_probs:float array -> bool
(** Goodness-of-fit test at significance 0.001 (dof = non-zero cells − 1,
    at most 30): [false] is a one-in-a-thousand event for a correct
    sampler. *)

val binomial_confidence : successes:int -> trials:int -> float * float
(** [(p, half_width)] where [half_width] is the 95% normal-approximation
    confidence half-width of the proportion. *)
