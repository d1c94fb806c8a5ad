(** Experiment E15: convergence of Section V-B revote sessions. *)

val e15_campaign : Vv_exec.Campaign.t
(** Success rate, mean sessions to decision and first-try rate per
    preference profile and adjustment policy. A single cell: the table
    shares one rng across the whole grid. The default seed reproduces the
    legacy output byte-for-byte; smoke tier shrinks the trial count. *)
