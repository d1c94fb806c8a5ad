(** The paper's voting protocols (Algorithms 1-4 and CFT) as one state
    machine parameterised by a Phase-1 broadcast substrate and a
    {!Variant}.

    Phases (Section IV-B): (1) the speaker reliably broadcasts the subject
    through [Sub]; (2) nodes broadcast their preference on output of a
    valid subject; (3) nodes propose their local plurality [A_i] when the
    variant's judgment condition fires; (4) nodes decide on a quorum of
    matching proposes. *)

module Oid = Vv_ballot.Option_id

type subject = int

type exec = {
  outputs : Oid.t option list;  (** honest nodes, in node-id order *)
  decision_rounds : int option list;  (** honest nodes, in node-id order *)
  rounds : int;
  stalled : bool;
  honest_msgs : int;
  byz_msgs : int;
  trace : Vv_sim.Trace.snapshot;  (** structured per-round history *)
}
(** Substrate-independent execution summary. *)

module Make (Sub : Vv_bb.Bb_intf.S) : sig
  type msg =
    | Prepare of Sub.msg  (** Phase 1 sub-machine traffic *)
    | Vote of { subject : subject; choice : Oid.t }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    variant : Variant.t;
    speaker : Vv_sim.Types.node_id;
    subject : subject;  (** consulted at the speaker only *)
    preference : Oid.t;  (** this node's vote [v_i] *)
  }

  module P : sig
    include
      Vv_sim.Protocol.S
        with type input = input
         and type msg = msg
         and type output = Oid.t

    val copy : state -> state
    (** A state that later steps on either copy cannot affect in the
        other: what {!E.run_prefix} needs to checkpoint a run. *)
  end

  module E : module type of Vv_sim.Engine.Make (P)

  val observed_votes :
    msg Vv_sim.Adversary.view ->
    (Vv_sim.Types.node_id * (subject * Oid.t)) list
  (** First vote per non-Byzantine sender in this round's traffic. *)

  val adversary_of :
    ?tie:Vv_ballot.Tie_break.t -> Strategy.t -> msg Vv_sim.Adversary.t


  val execute_checked :
    Vv_sim.Config.t ->
    variant:Variant.t ->
    speaker:Vv_sim.Types.node_id ->
    subject:subject ->
    preferences:(Vv_sim.Types.node_id -> Oid.t) ->
    strategy:Strategy.t ->
    (exec, [ `Invalid_adversary of string ]) result
  (** One full run against the strategy's adversary; an adversary that
      violates the fault plan or communication model is an [Error], not an
      exception. *)

  val execute_scripted :
    Vv_sim.Config.t ->
    variant:Variant.t ->
    speaker:Vv_sim.Types.node_id ->
    subject:subject ->
    preferences:(Vv_sim.Types.node_id -> Oid.t) ->
    Strategy.script_action list ->
    (exec, [ `Invalid_adversary of string ]) result
  (** [execute_scripted cfg ...] runs the part every scripted adversary
      shares — the run up to the honest steps of the first round with
      honest votes in the traffic, where a script starts acting — and
      returns a function that finishes it against one script.  The
      function keeps a checkpoint per depth along the last script it
      ran, so a script that shares its first actions with that one runs
      only the rest.  Each call equals {!execute_checked} with
      [~strategy:(Strategy.Scripted actions)], trace included.  The
      function is stateful: one domain may call it at a time. *)
end
