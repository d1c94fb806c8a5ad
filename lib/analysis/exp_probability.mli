(** Experiment E13: probability companions to Figure 1. *)

val e13_campaign : Vv_exec.Campaign.t
(** Two tables, deterministic: [Pr(gap > t)] (BFT exactness) vs
    [Pr(gap > 2t)] (SCT termination) per profile, the price of the safety
    guarantee; and Neiger's [N > mt] strong-consensus bound, demonstrated
    on the strong-consensus baseline with an alien-value flooding
    coalition, one cell per system size. *)
