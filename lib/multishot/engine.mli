(** Multi-shot throughput engine, the one multi-shot ledger: subject
    batching, slot sharding across Executor domains, pipelined cost
    accounting and catch-up.

    Submissions are assigned global positions in arrival order; position
    [p] lands in slot [p / batch], lane [p mod batch], and is decided by
    {!Ledger.compute} — pure per position — so groups of positions fan
    out through {!Vv_exec.Executor.map} and merge in index order. The
    committed log is byte-identical at every [jobs] value, and an engine
    at [batch = 1] commits at position [p] exactly
    [Ledger.compute ~index:p] of the [p]-th submission.

    The serve daemon ({!Vv_serve.Server}) drives one engine per process:
    [submit] on every vote submission, [step] after each read burst
    (decides full slots only), [flush] on demand, [decisions_from] for
    catch-up and log appends, [append_committed] to rebuild a log at
    restart or on a follower. *)

module Oid = Vv_ballot.Option_id

type t

val create : ?batch:int -> ?jobs:int -> Ledger.config -> t
(** [batch] (default 1) subjects per slot; [jobs] (default 1) worker
    domains for slot fan-out, [0] = all cores but one. Raises
    [Invalid_argument] when [batch < 1] or [jobs < 0]. *)

val config : t -> Ledger.config
val batch : t -> int

val height : t -> int
(** Committed (decided) positions so far. *)

val pending : t -> int
(** Accepted submissions not yet decided. *)

val slot_of : t -> int -> int
val lane_of : t -> int -> int

val submit : t -> subject:int -> Oid.t list -> int
(** Queue one subject with its per-node inputs (length [n]); returns the
    assigned global position. Raises [Invalid_argument] on wrong arity. *)

val step : t -> Ledger.slot list
(** Decide every pending submission that completes a full slot, in
    position order; partial trailing slots wait. Returns the newly
    committed decisions ([slot.index] is the global position). *)

val flush : t -> Ledger.slot list
(** Decide everything pending, including a partial final slot. *)

val append_committed :
  t -> Ledger.slot -> ([ `Applied | `Stale ], string) result
(** Append a slot decided elsewhere — how a {!Vv_serve.Replica} follower
    applies its primary's decision stream. [`Applied] extends the log
    (the slot's index must equal the current height), [`Stale] ignores a
    replayed slot below the height; a gap above the height, or an engine
    holding local pending submissions, is an [Error] (the follower must
    re-catchup). *)

val decisions : t -> Ledger.slot list
(** The committed log, in position order. *)

val decisions_from : t -> int -> Ledger.slot list
(** Committed decisions at positions [>= from], in position order
    (restart catch-up, log appends). Costs O(height - from). *)

val all_committed_valid : t -> bool
(** Every committed decision carried voting validity. O(1). *)

type stats = {
  decided : int;
  committed : int;
  skipped : int;
  slots_used : int;
  attempts_total : int;
  rounds_instances : int;
      (** sum of per-instance rounds: the unbatched, unpipelined cost *)
  rounds_sequential : int;
      (** sum of per-slot durations: batched but not pipelined *)
  rounds_pipelined : int;
      (** makespan with slot [k+1]'s Phase-1 broadcast overlapping slot
          [k]'s Phase 2 (the broadcast layer is the serial resource) *)
  all_valid : bool;
}

val stats : t -> stats
(** O(1): each slot is folded into running totals as it is committed. *)

val stats_of :
  batch:int ->
  bb:Vv_bb.Bb.choice ->
  n:int ->
  t:int ->
  Ledger.slot list ->
  stats
(** The same fold over a position-ordered log, usable on one
    reconstructed from a served decision stream. Deterministic and
    jobs-invariant. *)

val run :
  ?batch:int ->
  ?jobs:int ->
  Ledger.config ->
  (int * Oid.t list) list ->
  Ledger.slot list * stats
(** Submit every [(subject, inputs)] request, flush, and return the
    committed log with its stats. *)
