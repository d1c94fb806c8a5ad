(** Experiment E20: the network-agnostic validity region across
    synchrony models.

    Sweeps (t_s, t_a) tolerance pairs x network model (synchronous,
    eventually-synchronous with swept GST placement, asynchronous) x an
    electorate probe straddling the arXiv 2410.19721 bound, running
    {!Vv_bb.Na_voting} under a scripted forging adversary.  Per cell the
    governing tolerance is [t = t_s] on the synchronous network and
    [t = t_a] otherwise, and achievability is predicted by
    [f <= t && N > max{3t, 2t + 2*B_G + C_G}]. Each run is judged by
    {!Vv_ballot.Property.judge} under voting validity and Na_voting's
    own tie rule, ties to the smaller value; [ok] demands that every
    predicted-achievable cell is Exact on all trials — observed
    violations may only appear outside the bound.

    Deterministic at any [jobs]: per-index derived seeds through
    {!Vv_exec.Executor.map}, aggregated in index order. *)

type profile = Vv_exec.Campaign.profile = Smoke | Full

type sched =
  | Sync
  | Gst of int  (** GST round, uniform admissible scheduler *)
  | Gst_adv of int
      (** GST round, adversary-supplied schedule: every message held to
          the admissibility cap (pre-GST messages land at [gst + bound],
          post-GST ones take the full eventual bound) — the worst
          schedule the model admits *)
  | Async

val sched_label : sched -> string

type probe =
  | Wide  (** [f = t], margin comfortably inside the bound *)
  | Overfault  (** [f = t_s + 1]: beyond even the synchronous tolerance *)
  | Margin  (** [f = t] but [A_G < B_G + f]: outside the validity bound *)

val probe_label : probe -> string

type cell = {
  t_s : int;
  t_a : int;
  sched : sched;
  probe : probe;
  ag : int;
  bg : int;
  cg : int;
  f : int;
}

val cell_n : cell -> int

val predicted : cell -> bool
(** The bound prediction: [f <= t && n > 3t && n > 2t + 2*bg + cg] for
    the cell's governing tolerance. *)

type stats = {
  cell : cell;
  exact : int;
  stalls : int;
  violations : int;
  rounds_avg : float;
}

val cell_class : stats -> Vv_ballot.Property.verdict
(** Worst classification over the cell's trials:
    Violation > Stall > Exact. *)

type result = {
  profile : profile;
  trials : int;
  cells : stats list;  (** grid order: (t_s, t_a), then network, then probe *)
  ok : bool;  (** every predicted-achievable cell Exact on all trials *)
}

val adversary : delta:int -> Vv_bb.Na_voting.msg Vv_sim.Adversary.t
(** The scripted forger every Byzantine node runs: Inp(1) and Fin(1) at
    round 0, then Vote(1), Comm(1) and FbVote(1) at [delta], [2*delta]
    and [3*delta]. Time-based, so it needs no view state; E17 runs it
    too. *)

val judge_na :
  Vv_sim.Config.t -> inputs:(int -> int) -> t_tol:int -> int option array ->
  Vv_ballot.Property.verdict
(** [judge_na cfg ~inputs ~t_tol outputs] judges one {!Vv_bb.Na_voting}
    run — [inputs] and [outputs] indexed by node id — with
    {!Vv_ballot.Property.judge} under voting validity on [cfg]'s honest
    nodes, under Na_voting's own tie rule (ties to the smaller value).
    E17 judges its Na_voting runs through it too. *)

val tables : result -> Vv_prelude.Table.t list
(** The per-cell grid and the (t_s, t_a) region summary, for the shared
    {!Vv_exec.Emit} path. *)

val campaign : ?trials:int -> unit -> Vv_exec.Campaign.t
(** The same grid packaged as a campaign: one cell per grid point, [ok]
    wired through so the CLI exits nonzero on any in-bound violation. *)
