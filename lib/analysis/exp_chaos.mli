(** Experiment E17: resilience campaigns on the chaos network substrate.

    Sweeps fault intensity — per-link drop rate x transient-partition
    width x recovery lag — across every protocol variant (the
    synchronous pipeline plus the network-agnostic {!Vv_bb.Na_voting}
    under the E20 forging adversary). Each run is judged by
    {!Vv_ballot.Property.judge} under voting validity — Exact (all
    honest nodes decide the true plurality), Stall (some honest node
    never decides) or Violation (a decided value breaks
    safety-guaranteed admissibility, Definition V.1, or agreement) —
    Na_voting runs under its own tie rule, ties to the smaller value.
    The degradation envelope is the frontier of the Exact region; the
    safety-guaranteed variant (Algorithm 2) must show zero Violation
    cells anywhere on the grid — [ok] records exactly that.

    Deterministic at any [jobs]: cells fan out through
    {!Vv_exec.Campaign.run} with per-index derived seeds and are
    aggregated sequentially in index order. *)

val campaign : ?retransmit:bool -> ?trials:int -> unit -> Vv_exec.Campaign.t
(** The campaign: one cell per grid point, per-trial seeds derived from
    the flat (cell, trial) index, [ok] wired to the emitted value so the
    CLI can exit non-zero on a safety violation. [retransmit] (default
    [false]) enables {!Vv_sim.Retransmit.default} for every run;
    [trials] overrides the profile's per-cell trial count. Byte-identical
    output at every [jobs]. Running it raises [Invalid_argument] when
    [trials < 1]. *)
