(** Experiment E12 (extension): multi-hop voting over radio topologies. *)

val e12_campaign : Vv_exec.Campaign.t
(** Two tables, deterministic: the same electorate across connected
    topologies (exactness everywhere, latency scaling with diameter), and
    the relay-poisoning limit of first-accept flooding ([36]): inert on
    the complete graph, exactness-breaking (never validity-breaking)
    beyond one hop. *)
