(** Vote tallies: counts of received votes per option (the paper's [|X_i|]).

    Includes the [Sort] utility of Algorithm 1: decompose a node's view into
    the highest-voted option [A_i], the runner-up [B_i], and the aggregate of
    all remaining options [C_i] (Equation 1). *)

type t

val empty : t
val add : t -> Option_id.t -> t
val add_many : t -> Option_id.t -> int -> t
(** Raises [Invalid_argument] on a negative count. *)

val of_list : Option_id.t list -> t
val of_counts : (Option_id.t * int) list -> t

val count : t -> Option_id.t -> int
(** 0 for options never seen. *)

val total : t -> int
val distinct : t -> int
(** Number of options with at least one vote. *)

val support : t -> (Option_id.t * int) list
(** Bindings in option order. *)

val is_empty : t -> bool
val merge : t -> t -> t
(** Pointwise sum. *)

val ranked : tie:Tie_break.t -> t -> (Option_id.t * int) list
(** From winner to loser: descending count, ties broken by the rule. *)

type top = {
  a : Option_id.t;  (** highest-voted option (A_i of Algorithm 1's Sort) *)
  a_count : int;
  b : Option_id.t option;  (** runner-up (B_i), [None] if a single option *)
  b_count : int;  (** 0 when [b = None] *)
  c_count : int;  (** total votes on all remaining options (Equation 1) *)
}

val top : tie:Tie_break.t -> t -> top option
(** [None] on the empty tally. *)

val plurality : tie:Tie_break.t -> t -> Option_id.t option
(** The winning option under the tie-break rule. *)

val gap : tie:Tie_break.t -> t -> int option
(** [a_count - b_count]; [None] on the empty tally. *)
