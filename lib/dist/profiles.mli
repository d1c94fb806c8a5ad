(** The D1-D4 preference profiles of Figure 1(a).

    Exact published values are not recoverable from the figure image; these
    four span low to maximal entropy over 4 options (see DESIGN.md §3). *)

type t = { name : string; p : float array }

val d1 : t
(** (.70,.10,.10,.10) — low entropy. *)

val d2 : t
(** (.55,.25,.10,.10). *)

val d3 : t
(** (.40,.30,.20,.10). *)

val d4 : t
(** (.25,.25,.25,.25) — maximal entropy. *)

val all : t list
val default_ng : int
(** 10, as in Section VI-B. *)

val distribution : ?ng:int -> t -> Multinomial.t
val initial_entropy : ?ng:int -> t -> float
(** The legend's [H_0]. *)
