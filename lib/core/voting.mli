(** The paper's voting protocols (Algorithms 1-4 and CFT), and approval
    voting ({!Approval}), as one state machine parameterised by a Phase-1
    broadcast substrate and a {!Variant}.

    Phases (Section IV-B): (1) the speaker reliably broadcasts the subject
    through [Sub]; (2) nodes broadcast their ballot on output of a valid
    subject; (3) nodes propose their local leader [A_i] when the variant's
    judgment condition fires; (4) nodes decide on a quorum of matching
    proposes.

    A ballot is the list of options a vote endorses: one option under
    plurality, a set under approval.  A vote adds one endorsement to each
    distinct option on its ballot, so a faulty voter adds at most one to
    any option.  Phase 3 counts voters, not endorsements, where it counts
    votes: its t+1 trigger, and Inequality (14), which judges [A_i]'s
    lead against the voters not yet heard.  A Byzantine vote that lists
    several options is thus no stronger than one-option votes. *)

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
    | Vote of { subject : subject; ballot : Oid.t list }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    variant : Variant.t;
    speaker : Vv_sim.Types.node_id;
    subject : subject;  (** consulted at the speaker only *)
    ballot : Oid.t list;
        (** the options this node's vote endorses: [[v_i]] under
            plurality *)
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
    (Vv_sim.Types.node_id * (subject * Oid.t list)) list
  (** First vote per non-Byzantine sender in this round's traffic, with
      its subject and ballot, in sender order. *)

  val broadcast_from_all :
    msg Vv_sim.Adversary.view -> msg -> msg Vv_sim.Adversary.delivery_plan list
  (** Every Byzantine node sends the message to every node. *)

  val adversary_of :
    ?tie:Vv_ballot.Tie_break.t -> Strategy.t -> msg Vv_sim.Adversary.t
  (** The named strategies act once: each plays in the first round honest
      votes appear ([Late_collude d] after [d] silent rounds), on the
      votes of that round. *)

  val execute_checked :
    Vv_sim.Config.t ->
    variant:Variant.t ->
    speaker:Vv_sim.Types.node_id ->
    subject:subject ->
    preferences:(Vv_sim.Types.node_id -> Oid.t) ->
    strategy:Strategy.t ->
    (exec, [ `Invalid_adversary of string ]) result
  (** One full plurality run, node [i] voting [[preferences i]], against
      the strategy's adversary; an adversary that violates the fault plan
      or communication model is an [Error], not an exception. *)

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
