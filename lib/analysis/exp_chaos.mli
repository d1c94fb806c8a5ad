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

type profile = Vv_exec.Campaign.profile = Smoke | Full
(** Re-export of {!Vv_exec.Campaign.profile}. [Smoke] is the CI tier (3 drop rates x 3 partition scenarios x 6
    variants x 3 trials); [Full] widens every axis. *)

type scenario = {
  width : int;  (** honest nodes isolated by the transient partition *)
  heal : int;  (** rounds until the partition heals (recovery lag) *)
}

type variant =
  | Std of Vv_core.Runner.protocol
      (** a synchronous voting pipeline variant *)
  | Na
      (** {!Vv_bb.Na_voting} — the network-agnostic broadcast protocol
          of E20 — run through the same substrate faults under the E20
          forging adversary *)

val variant_label : variant -> string

type cell = {
  variant : variant;
  drop : float;
  scenario : scenario;
  exact : int;  (** trials classified Exact *)
  stalls : int;
  violations : int;
  rounds_avg : float;
  dropped_avg : float;  (** deliveries destroyed by the substrate *)
  retrans_avg : float;  (** retransmission attempts fired *)
}

val cell_class : cell -> Vv_ballot.Property.verdict
(** Worst classification over the cell's trials:
    Violation > Stall > Exact. *)

type result = {
  profile : profile;
  retransmit : bool;
  trials : int;
  cells : cell list;  (** grid order: variant, then drop, then scenario *)
  ok : bool;
      (** the safety-guaranteed variant (Algo2_sct) and the
          network-agnostic variant ([Na]) had zero Violation trials on
          the whole grid *)
}

val tables : result -> Vv_prelude.Table.t list
(** The per-cell degradation grid and the per-protocol envelope summary,
    for the shared {!Vv_exec.Emit} path. *)

val campaign : ?retransmit:bool -> ?trials:int -> unit -> Vv_exec.Campaign.t
(** The campaign: one cell per grid point, per-trial seeds derived from
    the flat (cell, trial) index, [ok] wired to the emitted value so the
    CLI can exit non-zero on a safety violation. [retransmit] (default
    [false]) enables {!Vv_sim.Retransmit.default} for every run;
    [trials] overrides the profile's per-cell trial count. Byte-identical
    output at every [jobs]. Running it raises [Invalid_argument] when
    [trials < 1]. *)
