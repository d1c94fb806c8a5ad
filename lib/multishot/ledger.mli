(** Multi-shot voting: the slot of a ledger of repeated single-shot
    instances (the Section VIII future-work direction), decided by the
    pure {!compute}; {!Engine} holds the log.

    Each slot decides one subject under a rotating speaker; stalled slots
    (Byzantine/crashed speaker, or a safety-guaranteed protocol refusing a
    thin margin) are retried under the next speaker, optionally with the
    Section V-B electorate adjustment between attempts. Deterministic from
    the config seed — and slot-independent: slot [i]'s seeds derive from
    [(seed, i, attempt)] and its first speaker is [i mod n], so no slot
    depends on how many attempts its predecessors consumed. {!Engine}
    relies on this to shard slots across domains byte-identically. *)

module Oid = Vv_ballot.Option_id

type retry =
  | No_retry  (** a stalled slot is recorded as skipped *)
  | Rotate_speaker of int  (** retry under the next speaker, max attempts *)
  | Rotate_and_adjust of Vv_core.Session.policy * int
      (** rotate and adjust the electorate between attempts *)

type config = private {
  n : int;
  t : int;
  byzantine : Vv_sim.Types.node_id list;  (** persists across slots *)
  crash : (Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list;
      (** nodes that crash at the given round in every attempt *)
  protocol : Vv_core.Runner.protocol;
  strategy : Vv_core.Strategy.t;
  bb : Vv_bb.Bb.choice;
  tie : Vv_ballot.Tie_break.t;
  retry : retry;
  seed : int;
}

val config :
  ?byzantine:Vv_sim.Types.node_id list ->
  ?crash:(Vv_sim.Types.node_id * int * Vv_sim.Types.node_id list) list ->
  ?protocol:Vv_core.Runner.protocol ->
  ?strategy:Vv_core.Strategy.t ->
  ?bb:Vv_bb.Bb.choice ->
  ?tie:Vv_ballot.Tie_break.t ->
  ?retry:retry ->
  ?seed:int ->
  n:int ->
  t:int ->
  unit ->
  config
(** Defaults: SCT protocol (exactness never sacrificed across the ledger),
    colluding adversary, rotate-speaker with 4 attempts. *)

type slot = {
  index : int;
  subject : int;
  decision : Oid.t option;  (** [None] = skipped after exhausting retries *)
  speaker : Vv_sim.Types.node_id;  (** speaker of the deciding attempt *)
  attempts : int;
  valid : bool;  (** tie-break-aware voting validity of the final attempt *)
  rounds_total : int;
}

val compute :
  config -> ?speaker_base:int -> index:int -> subject:int -> Oid.t list -> slot
(** [compute cfg ~index ~subject inputs] decides the slot at [index] as a
    pure function of its arguments: attempt [k] (from 1) runs under seed
    [Rng.derive (Rng.derive cfg.seed index) k] with speaker
    [(speaker_base + k - 1) mod n] ([speaker_base] defaults to
    [index mod n]). Independent of every other slot and domain-safe, so
    callers may fan slots out across domains and merge in index order.
    Raises [Invalid_argument] on wrong arity or negative [index]. *)

val slot_to_json : slot -> Vv_prelude.Json.t
val slot_of_json : Vv_prelude.Json.t -> (slot, string) result
(** Lossless slot serialisation: the serve daemon's decision lines and
    decision-log records. [slot_of_json] returns [Error], never raises,
    on any malformed value. *)

val pp_slot : slot Fmt.t
