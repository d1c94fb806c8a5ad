(** The strong, full-information, rushing adversary of Section III-B1.

    Controls all Byzantine nodes jointly; observes everything honest nodes
    send in the current round before choosing its own messages; may
    equivocate per-recipient under point-to-point (the engine enforces
    identical messages under local broadcast). *)

(** The view is an indexed window over the engine's packed send buffer —
    the adversary-side analogue of {!Inbox}.  The engine allocates one
    view per run and refreshes [round]/[sent_len] each round, so a round
    with an uninterested adversary allocates nothing; accessors (and the
    view itself) are only valid for the duration of the [act] call and
    must not be retained. *)
type 'msg view = {
  mutable round : int;
  mutable sent_len : int;
      (** how many messages non-Byzantine nodes sent this round *)
  sent_src : int -> Types.node_id;
  sent_dst : int -> Types.node_id;
  sent_msg : int -> 'msg;
      (** the i-th honest send of the round, [0 <= i < sent_len], in
          (node id, emission, neighbourhood) order *)
  byz_inbox : Types.node_id -> (Types.node_id * 'msg) list;
      (** this round's deliveries to the given Byzantine node *)
  in_flight : unit -> (int * Types.node_id * Types.node_id) list;
      (** every delivery already routed but not yet delivered, as
          (arrival round, src, dst) triples sorted ascending — in-flight
          scheduling exposed to the full-information adversary, so scripts
          can pick worst-case delivery orders under the asynchronous and
          GST delay models.  Allocates per call; valid only during
          [act]. *)
  byzantine : Types.node_id list;
  n : int;
  reach : Types.node_id -> Types.node_id list;
      (** broadcast recipients of a node: its neighbourhood plus itself *)
}

type 'msg t = {
  name : string;
  act : 'msg view -> 'msg delivery_plan list;
  passive : bool;
      (** statically known to inject nothing, ever; the engine then skips
          building the per-round view and validating the (empty) plan.
          Construct via {!passive} / {!named} — only {!passive} sets it. *)
  quiescent : unit -> bool;
      (** [quiescent ()] promises that, from now on, [act] applied to any
          view with no honest traffic and empty Byzantine inboxes returns
          [[]] without mutating internal state or drawing randomness.  The
          engine consults it (with protocol {!Protocol.S.inert} states and
          an empty schedule) to fast-forward provably-quiet executions to
          their stall verdict.  [fun () -> false] is always sound. *)
}

and 'msg delivery_plan = {
  src : Types.node_id;  (** must be Byzantine; the engine validates *)
  dst : Types.node_id;
  msg : 'msg;
}

val passive : 'msg t
(** Byzantine nodes stay silent. *)

val named :
  ?quiescent:(unit -> bool) ->
  string ->
  ('msg view -> 'msg delivery_plan list) ->
  'msg t
(** [quiescent] defaults to [fun () -> false] (never fast-forward). *)

val broadcast_each_round :
  name:string ->
  when_round:(int -> bool) ->
  (src:Types.node_id -> 'msg view -> 'msg option) ->
  'msg t
(** Every Byzantine node broadcasts the produced message to its whole
    neighbourhood in accepted rounds; legal under both communication
    models and any topology. *)

val of_script :
  ?quiet_trigger:bool ->
  name:string ->
  trigger:('msg view -> 'ctx option) ->
  interp:('ctx -> 'action -> 'msg view -> 'msg delivery_plan list) ->
  'action list ->
  'msg t
(** [of_script ~name ~trigger ~interp actions] replays [actions] one per
    round, starting the round [trigger] first returns a context (silent
    before that, and again after the script is exhausted).  The context is
    captured exactly once, at trigger time, and passed to every
    interpretation — so a script is pure data whose meaning is fixed by the
    triggering view.  [quiet_trigger] (default [false]) promises that
    [trigger] reacts only to observed traffic — it returns [None] on, and
    does not retain, views with no honest sends and empty Byzantine
    inboxes — which makes the adversary report itself quiescent before the
    trigger fires, not just after exhaustion.  Statefulness warning: the
    returned adversary carries replay state and must not be shared across
    runs. *)
