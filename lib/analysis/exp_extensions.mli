(** Experiment E14: the library extensions in action. *)

val e14_campaign : Vv_exec.Campaign.t
(** Three tables, deterministic: stake-weighted thresholds (max tolerable
    adversary weight per stake profile), approval voting under collusion
    (the endorsement-gap exactness condition on the live protocol), and
    multi-dimensional subjects with per-coordinate SCT verdicts. *)
