(** One-stop experiment runner: specify a system, execute a protocol
    against an adversary, and classify the outcome against every property
    of Section III-C. *)

module Oid = Vv_ballot.Option_id

type protocol =
  | Algo1  (** BFT voting, Inequality (3) *)
  | Algo2_sct  (** safety-guaranteed, Inequality (7) *)
  | Algo3_incremental  (** optimistic responsiveness, Inequality (14) *)
  | Algo4_local  (** local broadcast model, Inequality (15) *)
  | Cft  (** crash faults only; plain Phase 1 *)
  | Sct_incremental  (** Algorithm 2 with the Algorithm 3 trigger *)

val protocol_label : protocol -> string

val protocols : protocol list
(** Every protocol, in declaration order. *)

val protocol_of_name : string -> protocol option
(** The inverse of {!protocol_label}; also accepts the aliases [algo2]
    and [sct], [algo3] and [incremental], [algo4] and [local], and
    [sct-incremental]. *)

val variant_of : protocol -> Variant.t

type spec = private {
  n : int;
  t : int;
  inputs : Oid.t list;  (** length [n]; entries at Byzantine ids ignored *)
  byzantine : Vv_sim.Types.node_id list;
  crash : (Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list;
      (** (node, crash round, recipients of its final broadcast) *)
  protocol : protocol;
  bb : Vv_bb.Bb.choice;
  strategy : Strategy.t;
  tie : Vv_ballot.Tie_break.t;
  delay : Vv_sim.Delay.t;
  network : Vv_sim.Network.t;
      (** chaos substrate; [Network.none] = faithful links *)
  retransmit : Vv_sim.Retransmit.t option;
  seed : int;
  max_rounds : int;
  subject : int;
  speaker : Vv_sim.Types.node_id;
  judgment_override : Variant.judgment option;
}

val spec :
  ?byzantine:Vv_sim.Types.node_id list ->
  ?crash:(Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list ->
  ?protocol:protocol ->
  ?bb:Vv_bb.Bb.choice ->
  ?strategy:Strategy.t ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?delay:Vv_sim.Delay.t ->
  ?network:Vv_sim.Network.t ->
  ?retransmit:Vv_sim.Retransmit.t ->
  ?seed:int ->
  ?max_rounds:int ->
  ?subject:int ->
  ?speaker:Vv_sim.Types.node_id ->
  ?judgment_override:Variant.judgment ->
  n:int ->
  t:int ->
  Oid.t list ->
  spec
(** Raises [Invalid_argument] when [inputs] does not have length [n]. *)

val with_seed : int -> spec -> spec
(** Same specification with a different PRNG seed — how a batch gives each
    instance its own derived seed deterministically. *)

type outcome = {
  outputs : Oid.t option list;  (** honest nodes, node-id order *)
  honest : Vv_ballot.Validity.summary;
      (** the honest inputs under the spec's tie rule; [.inputs] lists
          them in node-id order *)
  termination : bool;
  agreement : bool;
  voting_validity : bool;  (** strict form, Definition III.3 *)
  voting_validity_tb : bool;  (** tie-break-aware form *)
  strong_validity : bool;
  safety_admissible : bool;  (** Definition V.1 *)
  stalled : bool;
  rounds : int;
  honest_msgs : int;
  byz_msgs : int;
  decision_rounds : int option list;
  trace : Vv_sim.Trace.snapshot;  (** per-round structured history *)
}

val run_checked :
  spec -> (outcome, [ `Invalid_adversary of string ]) result
(** Execute the specification. An adversary that violates the fault plan
    or the communication model is reported as an [Error] — batch callers
    aggregate it instead of dying.

    A [Strategy.Scripted] specification resumes the deepest checkpoint
    its script shares with the previous one
    ({!Voting.Make.execute_scripted}) from a one-entry memo per domain,
    keyed on every field but the strategy, which also holds the honest
    inputs' {!Vv_ballot.Validity.summary}; the outcome equals
    {!run_checked_unshared}'s. *)

val run_checked_unshared :
  spec -> (outcome, [ `Invalid_adversary of string ]) result
(** {!run_checked} without prefix sharing: every run executes from round
    0.  The reference the shared path is tested against. *)

val run : spec -> outcome
(** Like {!run_checked} but raises {!Vv_sim.Engine.Invalid_adversary}. *)

val simple_spec :
  ?protocol:protocol ->
  ?strategy:Strategy.t ->
  ?bb:Vv_bb.Bb.choice ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?delay:Vv_sim.Delay.t ->
  ?network:Vv_sim.Network.t ->
  ?retransmit:Vv_sim.Retransmit.t ->
  ?seed:int ->
  ?max_rounds:int ->
  t:int ->
  f:int ->
  Oid.t list ->
  spec
(** The specification {!simple} runs, without running it — feed these to
    {!run_checked}, e.g. across a batch. *)

val simple :
  ?protocol:protocol ->
  ?strategy:Strategy.t ->
  ?bb:Vv_bb.Bb.choice ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?delay:Vv_sim.Delay.t ->
  ?network:Vv_sim.Network.t ->
  ?retransmit:Vv_sim.Retransmit.t ->
  ?seed:int ->
  ?max_rounds:int ->
  t:int ->
  f:int ->
  Oid.t list ->
  outcome
(** The paper's standard setup: the given honest inputs first, then [f]
    Byzantine nodes, honest node 0 as speaker, [Collude_second] adversary
    by default. *)
