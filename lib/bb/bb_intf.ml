(* Common interface of the Byzantine Broadcast / Agreement sub-machines.

   A sub-machine is a fixed-duration round protocol that can be embedded
   inside a larger protocol (Phase 1 of Algorithms 1-3 embeds one to
   broadcast the subject) or wrapped into a full Protocol.S for direct
   execution (Protocol_of).  Values are integers; [bottom] (-1) encodes the
   absence of a valid value, on which nodes may also agree when the sender
   is faulty.

   Sends are pushed into the caller-supplied {!Vv_sim.Outbox.t} (the
   embedding protocol either passes the engine's outbox straight through
   or transfer-wraps the entries into its own message type); arrivals are
   read from an {!inbox} the embedder fills across delta-batched engine
   rounds — a reusable growable pair of parallel arrays, so buffering a
   delivery costs no allocation on the engine's hot path. *)

let bottom = -1

(* The sub-machine inbox: parallel arrays of (source, message), valid on
   [0, len).  The embedder owns one per sub-machine instance, pushes every
   arrival of the current batch in delivery order, and clears it after the
   [step] call; sub-machines only read it, by index. *)
type 'msg inbox = {
  mutable srcs : int array;
  mutable msgs : 'msg array;  (* parallel to [srcs]; slots >= [len] stale *)
  mutable len : int;
}

let inbox_create () = { srcs = [||]; msgs = [||]; len = 0 }

let inbox_push ib src m =
  (if ib.len = Array.length ib.srcs then begin
     let ncap = if ib.len = 0 then 8 else 2 * ib.len in
     let srcs = Array.make ncap 0 and msgs = Array.make ncap m in
     Array.blit ib.srcs 0 srcs 0 ib.len;
     Array.blit ib.msgs 0 msgs 0 ib.len;
     ib.srcs <- srcs;
     ib.msgs <- msgs
   end);
  ib.srcs.(ib.len) <- src;
  ib.msgs.(ib.len) <- m;
  ib.len <- ib.len + 1

let inbox_clear ib = ib.len <- 0

(* An independent copy of the live entries. *)
let inbox_copy ib =
  { srcs = Array.sub ib.srcs 0 ib.len; msgs = Array.sub ib.msgs 0 ib.len;
    len = ib.len }

(* Convenience for tests and one-shot callers. *)
let inbox_of_list l =
  let ib = inbox_create () in
  List.iter (fun (src, m) -> inbox_push ib src m) l;
  ib

module type S = sig
  val name : string

  type state
  type msg

  val equal_msg : msg -> msg -> bool
  (** Structural message equality — monomorphic, so embedding it in a
      larger protocol's [equal_msg] never falls back to polymorphic
      compare. *)

  val rounds : n:int -> t:int -> int
  (** Total local rounds: [result] is defined after the inbox of local round
      [rounds n t] has been processed by [step]. *)

  val start :
    n:int ->
    t:int ->
    me:Vv_sim.Types.node_id ->
    sender:Vv_sim.Types.node_id ->
    value:int option ->
    outbox:msg Vv_sim.Outbox.t ->
    state
  (** Local round 0. [value] must be [Some v] (with [v >= 0]) exactly at the
      designated sender.  Sends are pushed into [outbox]. *)

  val step :
    n:int ->
    t:int ->
    me:Vv_sim.Types.node_id ->
    state ->
    lround:int ->
    inbox:msg inbox ->
    outbox:msg Vv_sim.Outbox.t ->
    state
  (** Local rounds 1 .. [rounds n t].  [inbox] is read-only and only valid
      for the duration of the call (the embedder clears and refills it). *)

  val result : state -> int
  (** The agreed value, or [bottom]. Defined once all rounds have run;
      querying earlier returns the current tentative value. *)

  val copy : state -> state
  (** A state that later [step]s on either copy cannot affect in the
      other — the identity for immutable states.  Lets an embedding
      protocol checkpoint a run mid-broadcast. *)
end
