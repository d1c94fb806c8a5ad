(** Structured, immutable per-run traces.

    The engine accumulates a trace while it runs — per-round send counts,
    adversary injections, chaos-substrate activity (dropped / duplicated /
    retransmitted deliveries), per-node phase transitions (as reported by
    {!Protocol.S.phase}) and decide rounds — and freezes it into a
    [snapshot] on completion. A snapshot is the unit of observability,
    and a run's only message and round accounting: one value per run,
    safe to store and aggregate, with CSV and JSON emitters.

    Runs without the chaos substrate ([chaos = false]) emit exactly the
    pre-substrate CSV/JSON shape — the chaos columns appear only when the
    run had the substrate or retransmission engaged. *)

type round_record = {
  round : int;
  honest_sent : int;  (** honest deliveries sent this round *)
  byz_sent : int;  (** adversary deliveries injected this round *)
  dropped : int;  (** deliveries destroyed by the chaos substrate *)
  duplicated : int;  (** extra copies injected by the substrate *)
  retransmitted : int;  (** retransmission attempts fired this round *)
  newly_decided : Types.node_id list;  (** ascending *)
  decided_total : int;  (** cumulative honest decisions after this round *)
}

type phase_event = {
  at_round : int;
  node : Types.node_id;
  phase : string;  (** the phase entered *)
}

type snapshot = {
  protocol : string;
  adversary : string;
  n : int;
  t : int;
  rounds : round_record list;  (** ascending by round *)
  phases : phase_event list;  (** chronological, ties by node id *)
  decide_rounds : (Types.node_id * int) list;  (** ascending by node id *)
  honest_msgs : int;
  byz_msgs : int;
  dropped_msgs : int;
  dup_msgs : int;
  retrans_msgs : int;
  total_rounds : int;
  stalled : bool;
  chaos : bool;  (** substrate or retransmission engaged for this run *)
}

(** {1 Builder — used by the engine while a run is in flight} *)

type builder

val builder :
  ?chaos:bool ->
  protocol:string ->
  adversary:string ->
  n:int ->
  t:int ->
  unit ->
  builder
(** [chaos] defaults to [false]; set it when the run goes through the
    chaos substrate or a retransmission policy, which switches the
    emitters to the extended schema. *)

val copy : builder -> adversary:string -> builder
(** An independent copy of the history so far, recording the rest of the
    run under [adversary]'s name — how a resumed run continues the trace
    of the prefix it was paused from. *)

val record_phase : builder -> round:int -> node:Types.node_id -> phase:string -> unit

val record_decide : builder -> round:int -> node:Types.node_id -> unit

val record_round :
  builder ->
  round:int ->
  honest_sent:int ->
  byz_sent:int ->
  dropped:int ->
  duplicated:int ->
  retransmitted:int ->
  newly_decided:Types.node_id list ->
  unit
(** The chaos counters are mandatory (pass [0] outside the substrate):
    one call per round, and optional-argument wrapping would allocate on
    the engine's hot path.  Raises [Invalid_argument] after
    {!record_quiet_tail}. *)

val record_quiet_tail : builder -> from:int -> rounds:int -> unit
(** Records rounds [from .. rounds - 1] as quiet: nothing sent, dropped,
    duplicated, retransmitted or newly decided, the decided total
    unchanged.  Equal to one {!record_round} per round, but O(1): the
    records are taken from a per-domain table keyed by ([rounds],
    decided total) and shared with every run that ends the same way.
    The run ends there — record no round afterwards.  Raises
    [Invalid_argument] when [from] is already recorded or past
    [rounds]. *)

val snapshot : builder -> stalled:bool -> snapshot
(** Freeze. The builder may keep accumulating afterwards; the snapshot is
    unaffected. *)

(** {1 Queries} *)

val messages_total : snapshot -> int
val decide_round : snapshot -> Types.node_id -> int option
val phases_of : snapshot -> Types.node_id -> phase_event list

(** {1 Emitters} *)

val csv_header : string
(** Header of plain ([chaos = false]) traces. *)

val csv_header_chaos : string
(** Header of chaos traces: adds [dropped,duplicated,retransmitted]. *)

val to_csv : snapshot -> string
(** One line per executed round:
    [round,honest_sent,byz_sent,newly_decided,decided_total] where
    [newly_decided] is a [;]-separated id list — with the chaos columns
    spliced in after [byz_sent] when the snapshot has [chaos = true]. *)

val to_json : snapshot -> Vv_prelude.Json.t
