(* The strong adversary of Section III-B1.

   The adversary is full-information and rushing: each round it observes
   every message honest (and crashing) nodes send in that round *before*
   choosing the Byzantine nodes' messages, and it controls all Byzantine
   nodes jointly (collusion).  Under point-to-point it may send different
   messages to different recipients (the paper's k -i-> A notation); the
   engine rejects that under the local broadcast model. *)

(* The view is an indexed window over the engine's packed send buffer —
   the adversary-side analogue of {!Inbox}.  The engine allocates one view
   per run and refreshes [round]/[sent_len] each round, so observing a
   round allocates nothing until the adversary actually asks for message
   content.  Accessors are only valid during the [act] call. *)
type 'msg view = {
  mutable round : int;
  mutable sent_len : int;
      (** number of messages non-Byzantine nodes sent this round, after
          crash filtering — what a rushing adversary can observe *)
  sent_src : int -> Types.node_id;
  sent_dst : int -> Types.node_id;
  sent_msg : int -> 'msg;
      (** the i-th honest send of the round, 0 <= i < [sent_len], in
          (node id, emission, neighbourhood) order *)
  byz_inbox : Types.node_id -> (Types.node_id * 'msg) list;
      (** messages the given Byzantine node received this round *)
  in_flight : unit -> (int * Types.node_id * Types.node_id) list;
      (** the engine's pending schedule: every delivery already routed but
          not yet handed to its recipient, as (arrival round, src, dst)
          triples sorted ascending — the full-information adversary's
          window onto in-flight scheduling, so a scripted adversary can
          time its injections against worst-case delivery orders under
          [Asynchronous]/[Eventually_synchronous] delays.  Allocates a
          fresh list per call; only valid during [act]. *)
  byzantine : Types.node_id list;
  n : int;
  reach : Types.node_id -> Types.node_id list;
      (** broadcast recipients of a node: its neighbourhood plus itself
          (all nodes under the complete graph) *)
}

type 'msg t = {
  name : string;
  act : 'msg view -> 'msg delivery_plan list;
  passive : bool;
      (* statically known to never inject anything: lets the engine skip
         building the view (and validating the empty plan) every round *)
  quiescent : unit -> bool;
      (* [quiescent ()] promises that from now on [act], applied to any
         view with no honest traffic and empty Byzantine inboxes, returns
         [] without changing internal state or drawing randomness.  The
         engine uses it to fast-forward provably-quiet executions; a
         conservative [fun () -> false] is always sound. *)
}

and 'msg delivery_plan = {
  src : Types.node_id;  (** must be Byzantine *)
  dst : Types.node_id;
  msg : 'msg;
}

let never_quiescent () = false

let passive =
  { name = "passive"; act = (fun _ -> []); passive = true;
    quiescent = (fun () -> true) }

let named ?(quiescent = never_quiescent) name act =
  { name; act; passive = false; quiescent }

(* Broadcast [msg] from every Byzantine node to its whole neighbourhood,
   each round that [when_round] accepts.  Legal under both communication
   models and any topology. *)
let broadcast_each_round ~name ~when_round msg_of =
  let act view =
    if not (when_round view.round) then []
    else
      List.concat_map
        (fun src ->
          match msg_of ~src view with
          | None -> []
          | Some msg ->
              List.map (fun dst -> { src; dst; msg }) (view.reach src))
        view.byzantine
  in
  { name; act; passive = false; quiescent = never_quiescent }

(* Replay a per-round action script.  Each round before [trigger] fires the
   adversary stays silent; the round [trigger] returns a context the first
   script action is interpreted against that round's view, the next action
   the following round, and so on.  After the script is exhausted the
   adversary is silent again.  The context is captured once, at trigger
   time, so a script's meaning cannot drift as the execution evolves —
   that is what makes scripts enumerable as plain data by the checker. *)
let of_script ?(quiet_trigger = false) ~name ~trigger ~interp script =
  let state = ref None (* context, remaining actions *) in
  let act view =
    (match !state with
    | None -> (
        match trigger view with
        | Some ctx -> state := Some (ctx, script)
        | None -> ())
    | Some _ -> ());
    match !state with
    | None | Some (_, []) -> []
    | Some (ctx, action :: rest) ->
        state := Some (ctx, rest);
        interp ctx action view
  in
  (* Quiet once the script is exhausted, and — when the caller promises a
     traffic-reactive trigger via [quiet_trigger] — also before it fires;
     mid-script the replay advances every round regardless of the view. *)
  let quiescent () =
    match !state with
    | Some (_, []) -> true
    | None -> quiet_trigger
    | Some (_, _ :: _) -> false
  in
  { name; act; passive = false; quiescent }
