(** Chaos network substrate: deterministic, seeded fault injection between
    send and delivery.

    The substrate composes, per delivery, the lossy-link adversary the
    paper's reliable model abstracts away: independent per-link omission,
    duplication, bounded reordering (extra delay clamped into the declared
    {!Delay.bound}), transient bidirectional partitions, and node outages
    (a node silent for a round interval, then rejoining with its protocol
    state intact — the network-level face of crash-recovery).

    Everything is data: a [t] value plus its [seed] fully determines the
    fault pattern of a run against the engine's deterministic send order,
    so campaigns, the small-model checker and scripted adversaries can
    replay a chaos plan exactly.  Self-deliveries ([src = dst], a node
    hearing its own broadcast) never traverse the network and are exempt
    from every fault.

    {!none} injects nothing; the engine routes through the legacy path in
    that case (no chaos RNG is consulted), so traces stay byte-identical
    with the substrate compiled in but disabled. *)

type window = {
  from_round : int;  (** first round the fault is active *)
  until_round : int;  (** first round it has healed (exclusive bound) *)
}

type partition = {
  window : window;
  isolated : Types.node_id list;
      (** bidirectional cut between this node set and its complement while
          the window is active; traffic within either side is unaffected *)
}

type outage = {
  node : Types.node_id;
  window : window;
      (** every link touching [node] is cut while active: the node sends
          into the void and receives nothing, but keeps its state and
          rejoins when the window closes *)
}

type t = private {
  drop : float;  (** per-delivery omission probability, in [0, 1) *)
  duplicate : float;  (** per-delivery duplication probability, in [0, 1) *)
  jitter : int;
      (** max extra rounds of delay per delivery; the engine clamps
          [base + jitter] into {!Delay.max_delay} so reordering stays
          within the synchrony assumption *)
  partitions : partition list;
  outages : outage list;
  seed : int;  (** chaos-private RNG seed, independent of the engine seed *)
}

val none : t
(** The identity substrate: nothing dropped, duplicated, delayed or cut. *)

val make :
  ?drop:float ->
  ?duplicate:float ->
  ?jitter:int ->
  ?partitions:partition list ->
  ?outages:outage list ->
  ?seed:int ->
  unit ->
  t
(** Validates probabilities in [0, 1), [jitter >= 0] and well-formed
    windows ([0 <= from_round <= until_round]). Node ids are validated
    against [n] by {!Config.make}. *)

val is_none : t -> bool
(** True when the substrate can have no observable effect (all intensities
    zero, no partitions or outages) — the engine then uses the legacy
    delivery path and draws nothing from the chaos RNG, keeping existing
    traces byte-identical. The [seed] does not participate: a seeded but
    zero-intensity substrate is still [is_none]. *)

val window_active : window -> round:int -> bool

val cut : t -> round:int -> src:Types.node_id -> dst:Types.node_id -> bool
(** Whether the [src -> dst] link is severed at [round] by a partition or
    an outage. Always false for [src = dst]. *)

val rng : t -> Vv_prelude.Rng.t
(** A fresh chaos RNG for one run, derived from [seed] only. *)

val dropped_i : int
(** The {!transit_i} verdict of a destroyed delivery ([-1]). *)

val transit_i : t -> Vv_prelude.Rng.t -> round:int -> src:Types.node_id -> dst:Types.node_id -> int
(** One send-time verdict, packed so it allocates nothing: {!dropped_i}
    for a delivery omitted (or cut at send time), otherwise
    [extra_delay lsl 1 lor duplicate_bit] — deliver with [extra_delay]
    rounds of jitter, and with the bit set a second, independently
    delayed copy. Draws from the RNG only for intensities that are
    strictly positive (and never for self-deliveries or cut links), so
    the chaos stream is stable under adding zero-intensity axes. The
    engine additionally re-checks {!cut} at the arrival round: a message
    in flight into a partition or outage window is lost. *)

val extra_delay : t -> Vv_prelude.Rng.t -> int
(** An independent jitter draw (0 when [jitter = 0], without consuming
    randomness) — used for the duplicate copy's own delay. *)
