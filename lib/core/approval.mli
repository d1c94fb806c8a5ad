(** Approval voting with voting validity (extension).

    Each voter endorses a {e set} of acceptable options (Parhami's
    taxonomy [16], which the paper cites for the plurality scheme); the
    option with the most honest endorsements must win exactly. A Byzantine
    node adds at most [t] bogus endorsements to any single option, so the
    Property-2 argument carries over: exactness whenever the honest
    endorsement gap exceeds [t] ([quorum_gap = 0]), safety-guaranteed
    behaviour at a gap above [2t] ([quorum_gap = t]).

    The protocol is {!Voting.Make} over the plain substrate with the
    approval sets as ballots; only the validity property judged on the
    outputs ({!approval_validity}) is approval's own. *)

type exec = {
  outputs : Vv_ballot.Option_id.t option list;
      (** honest nodes, node-id order *)
  rounds : int;
  stalled : bool;
}

val honest_leader :
  tie:Vv_ballot.Tie_break.t ->
  Vv_ballot.Option_id.t list list ->
  Vv_ballot.Tally.top option
(** Endorsement tally decomposition of a list of honest approval sets
    (duplicates within one set count once). *)

val approval_validity :
  tie:Vv_ballot.Tie_break.t ->
  honest_approvals:Vv_ballot.Option_id.t list list ->
  outputs:Vv_ballot.Option_id.t option list ->
  bool
(** The approval analogue of Definition III.3: when one option strictly
    leads the honest endorsements, every decided output must be it. *)

val execute :
  Vv_sim.Config.t ->
  speaker:Vv_sim.Types.node_id ->
  subject:int ->
  approvals:(Vv_sim.Types.node_id -> Vv_ballot.Option_id.t list) ->
  quorum_gap:int ->
  ?tie:Vv_ballot.Tie_break.t ->
  collude:bool ->
  unit ->
  exec
(** One run: node [i] votes the set [approvals i] (an option listed
    twice is endorsed once); a node proposes its endorsement leader when
    it leads by more than [quorum_gap] ([delta_P]: 0 for BFT, [t] for
    safety-guaranteed) and decides on [N - t] matching proposes. With
    [collude], the Byzantine nodes endorse the honest runner-up alone, in
    the first round the honest endorsements have one
    ("approval-collude-second"). Raises [Invalid_argument] on an empty
    set. *)
