(** Experiments E1-E3: regenerate Figure 1 (Section VI-B). *)

val empirical_success :
  ?jobs:int ->
  trials:int ->
  t:int ->
  rng:Vv_prelude.Rng.t ->
  Vv_dist.Multinomial.t ->
  float
(** Fraction of Algorithm-1 runs (inputs sampled from the profile, f = t
    colluders) that terminated with the exact honest plurality. [?jobs]
    fans the runs out across domains (see {!Vv_exec.Executor}); the result
    is identical at every value. *)

val fig1b :
  ?jobs:int ->
  ?t_max:int ->
  ?mc_samples:int ->
  ?trials:int ->
  ?seed:int ->
  unit ->
  Vv_prelude.Table.t
(** Figure 1(b): [Pr(A_G - B_G > t)] per profile and tolerance at the
    paper's [N_G], computed by exact enumeration, Monte-Carlo, and live
    protocol runs (the latter parallelisable via [?jobs], with identical
    output at every value). *)

val fig1a_campaign : Vv_exec.Campaign.t
(** Figure 1(a): the D1-D4 profiles and initial system entropy H_0; one
    cell per profile, deterministic. *)

val fig1b_campaign : Vv_exec.Campaign.t
(** A single cell (the table shares one rng across the whole grid) that
    threads the campaign's jobs budget into the inner protocol-run sweep.
    Smoke tier shrinks [t_max], the Monte-Carlo sample count and the
    trial count. *)

val fig1c_campaign : Vv_exec.Campaign.t
(** Figure 1(c): system entropy H_s vs actual faults f; one cell per
    profile, deterministic. *)
