(** Experiments E8-E9: baseline comparison and protocol cost. *)

val e8_campaign : Vv_exec.Campaign.t
(** Two coarse cells, each threading its own rng: the election workload
    (exact-plurality / agreement / termination rates of the
    voting-validity protocols vs the approximate baselines under
    collusion) and the sensor workload with Byzantine outliers (where
    median/approximate agreement win and plurality voting has nothing to
    find). The default seed reproduces the legacy per-table seeds
    byte-for-byte. Smoke tier shrinks the trial counts. *)

val e9_campaign : Vv_exec.Campaign.t
(** Rounds and messages per protocol and substrate across system sizes;
    one cell per (protocol, substrate, N_G) triple, deterministic. *)
