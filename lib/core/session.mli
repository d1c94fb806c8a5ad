(** Multi-round voting sessions (Section V-B).

    When a safety-guaranteed instance stalls (the gap [A_G - B_G] is within
    the adversary's reach), rerun the vote after honest voters adjust their
    preferences — the paper's "reconsider A and not vote for options in C"
    remedy. Adjustment is modelled at the electorate level,
    deterministically from the seed. *)

module Oid = Vv_ballot.Option_id

type policy =
  | Abandon_third
      (** voters below the top two switch to one of the top two — the
          paper's example *)
  | Bandwagon
      (** non-leader voters switch to the leader with probability 1/2 *)
  | Custom of
      (rng:Vv_prelude.Rng.t ->
      leader:Oid.t ->
      runner_up:Oid.t option ->
      Oid.t ->
      Oid.t)

type attempt = {
  round : int;  (** session round, from 1 *)
  inputs : Oid.t list;
  outcome : Runner.outcome;
}

type result = {
  attempts : attempt list;  (** in execution order *)
  decided : Oid.t option;
  sessions_used : int;
}

val adjust :
  tie:Vv_ballot.Tie_break.t ->
  rng:Vv_prelude.Rng.t ->
  policy ->
  Oid.t list ->
  Oid.t list
(** One electorate-level adjustment step (exposed for testing). *)

val run :
  ?policy:policy ->
  ?max_sessions:int ->
  ?protocol:Runner.protocol ->
  ?strategy:Strategy.t ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?seed:int ->
  t:int ->
  f:int ->
  Oid.t list ->
  result
(** Vote, and on stall adjust-and-revote up to [max_sessions] times
    (default 5; SCT protocol and colluding adversary by default). *)
