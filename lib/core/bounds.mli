(** The paper's tolerance bounds as executable arithmetic.

    Notation: [n] total nodes, [t] declared tolerance, [bg] = B_G (honest
    votes on the runner-up), [cg] = C_G (honest votes beyond the top two,
    Equation 1). All bounds are strict lower bounds on N. *)

type kind = Bft | Cft | Sct

val pp_kind : kind Fmt.t

val validity_bound : t:int -> bg:int -> cg:int -> int
(** Theorems 3 and 5: voting validity is impossible at
    [N <= 2t + 2B_G + C_G]. *)

val bft_bound : t:int -> bg:int -> cg:int -> int
(** Inequality (3): Algorithm 1 needs [N > max{3t, 2t + 2B_G + C_G}]. *)

val cft_bound : t:int -> bg:int -> cg:int -> int
(** CFT voting: no [3t] term. *)

val sct_bound : t:int -> bg:int -> cg:int -> int
(** Inequality (7): the safety-guaranteed protocol terminates when
    [N > 3t + 2B_G + C_G]. *)

val bound : kind -> t:int -> bg:int -> cg:int -> int
val satisfied : kind -> n:int -> t:int -> bg:int -> cg:int -> bool

val delta_p : kind -> t:int -> int
(** Local judgment condition: 0 for BFT/CFT, [t] for SCT (Theorem 10). *)

val required_gap : kind -> t:int -> int
(** Minimal [A_G - B_G] each bound forces: [t+1] (Property 2) or [2t+1]
    (Inequality 6). *)

val k_of : kind -> int
(** Theorem 12's K: 2 for BFT/CFT, 3 for SCT. *)

val vote_dispersion_tolerance : kind -> bg:int -> cg:int -> float
(** [t_vd = (2 B_G + C_G) / K]. *)

val max_tolerable_t : kind -> n:int -> bg:int -> cg:int -> int
(** Largest admissible [t] at fixed [n] and dispersion; [-1] when even
    [t = 0] fails. *)

val incremental_ready : n:int -> delta_p:int -> a_i:int -> c_i:int -> bool
(** Inequality (14): safe to propose once [a_i > (n - c_i + delta_p)/2]. *)

val decompose :
  tie:Vv_ballot.Tie_break.t ->
  Vv_ballot.Option_id.t list ->
  (Vv_ballot.Option_id.t * int * int * int) option
(** [(winner, A_G, B_G, C_G)] of an honest input multiset. *)

val satisfied_for :
  kind ->
  tie:Vv_ballot.Tie_break.t ->
  n:int ->
  t:int ->
  Vv_ballot.Option_id.t list ->
  bool
