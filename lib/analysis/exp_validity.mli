(** Experiment E21: the validity hierarchy made executable.

    Runs every implementation (three voting-validity protocol variants
    and the strong/median/interval exchange-based baselines) on wide /
    tie / over-fault electorates and judges each single outcome against
    every first-class validity property ({!Vv_ballot.Property.all}).  A
    (impl, config, property) triple is predicted solvable when [f <= t],
    the implementation's own bound holds, and the implementation's
    promised property implies the judged one — the arXiv 2301.04920
    solvability reading.  The campaign is [ok] iff every predicted
    triple is exact on all trials; unpredicted triples are observed and
    tabulated but assert nothing. *)

val campaign : ?trials:int -> unit -> Vv_exec.Campaign.t
(** The registered campaign (id ["e21"], seed [0xe21]). [trials]
    overrides the profile's per-cell trial count. *)
