(** Experiments E4-E5: the paper's worked examples. *)

val e4_campaign : Vv_exec.Campaign.t
(** Section I / IV example: Algorithm 1 fooled below the bound, SCT
    stalls safely; both exact above it. One cell per (protocol,
    electorate); deterministic. *)

val e5_campaign : Vv_exec.Campaign.t
(** Section VII-A's incremental threshold as three tables: the firing
    point (after 7 of 10 votes), mean rounds-to-decision of Algorithms 1
    vs 3 under uniform delays 1..delta, and a worst-case schedule that
    delays the leader's votes to the bound, where Algorithm 3 degrades to
    Algorithm 1's synchronous wait, never beyond. Smoke tier shrinks the
    sweep's seed count. *)
