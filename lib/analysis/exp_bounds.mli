(** Experiments E6, E7, E10 and E11: the tolerance bounds, executed. *)

val e6_campaign : Vv_exec.Campaign.t
(** Algorithm 4 under local broadcast at points with [N <= 3t]
    (Inequality 15); one cell per (N, t) point, deterministic. *)

val e7_campaign : Vv_exec.Campaign.t
(** Two tables: {!Witness.lemma2_cell} swept over (t, B_G, C_G, gap),
    and {!Witness.theorem10_demo} for t = 1..3. *)

val e10_campaign : Vv_exec.Campaign.t
(** Theorem 12: max tolerable t vs vote dispersion for K = 2 and K = 3,
    one cell per (B_G, C_G) point; then Section VI-A's remark that moving
    hesitant votes from the runner-up to third options shrinks the bound
    (B_G weighs double). Two tables. *)

val e11_campaign : Vv_exec.Campaign.t
(** Ablation of delta_P x quorum at t = 2: liveness on a decisive
    electorate vs safety under the Theorem 10 tie attack. One cell per
    (delta_P, quorum) pair; deterministic. *)
