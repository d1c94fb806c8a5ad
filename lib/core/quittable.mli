(** Quittable consensus ([33]) as a comparator.

    Safety-guaranteed voting under a deadline, with stalls surfaced as an
    agreed distinguished output [Q]. Demonstrates the Section V objection:
    termination is restored unconditionally, but [Q] is nobody's
    preference — the output loses its plurality meaning exactly when a
    strict honest plurality existed and the adversary forced the quit. *)

module Oid = Vv_ballot.Option_id

type verdict = Value of Oid.t | Quit

type outcome = {
  verdicts : verdict list;  (** honest nodes, node-id order *)
  termination : bool;  (** always true: [Q] counts as an output *)
  agreement : bool;
  quit : bool;
  plurality_meaning : bool;
      (** false iff [Q] was output while a strict honest plurality existed *)
  inner : Runner.outcome;
}

val run :
  ?deadline:int ->
  ?strategy:Strategy.t ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?seed:int ->
  t:int ->
  f:int ->
  Oid.t list ->
  outcome
