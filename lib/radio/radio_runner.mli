(** Convenience runner for {!Radio_voting} on a {!Topology}. *)

module Oid = Vv_ballot.Option_id

module E : module type of Vv_sim.Engine.Make (Radio_voting)

type outcome = {
  outputs : Oid.t option list;  (** honest nodes, node-id order *)
  honest : Vv_ballot.Validity.summary;  (** under the run's tie rule *)
  termination : bool;
  agreement : bool;
  voting_validity : bool;  (** strict form, Definition III.3 *)
  stalled : bool;
  rounds : int;
  messages : int;
  trace : Vv_sim.Trace.snapshot;  (** per-round structured history *)
}

type strategy =
  | Passive
  | Originate_second
      (** Byzantine nodes flood their own ballots for the honest runner-up
          — the legitimate worst case *)
  | Poison_origin of Vv_sim.Types.node_id * int
      (** [(victim, fake_option)]: own ballots plus a re-originated fake
          copy of the victim's ballot, struck on first honest ballot —
          the relay attack first-accept flooding cannot stop beyond one
          hop ([36]) *)

val adversary_of :
  tie:Vv_ballot.Tie_break.t -> strategy -> Radio_voting.msg Vv_sim.Adversary.t

val run :
  ?strategy:strategy ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?seed:int ->
  ?subject:int ->
  ?speaker:Vv_sim.Types.node_id ->
  ?max_rounds:int ->
  ?crash:(Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list ->
  topology:Topology.t ->
  t:int ->
  byzantine:Vv_sim.Types.node_id list ->
  Oid.t list ->
  outcome
(** Raises [Invalid_argument] on a disconnected topology or mismatched
    inputs length. *)
