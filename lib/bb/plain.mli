(** Plain (unprotected) sender broadcast as a degenerate BB sub-machine.

    Reliable only when the sender cannot equivocate: honest or
    crash-faulty senders, or any sender under the local broadcast model
    (Property 6). Phase-1 substrate of Algorithm 4 and the CFT protocol —
    which is exactly why they shed Inequality (3)'s [3t] term. Implements
    {!Bb_intf.S}. *)

val name : string

type msg = int

val equal_msg : msg -> msg -> bool

type state

val rounds : n:int -> t:int -> int
(** 1. *)

val start :
  n:int ->
  t:int ->
  me:Vv_sim.Types.node_id ->
  sender:Vv_sim.Types.node_id ->
  value:int option ->
  outbox:msg Vv_sim.Outbox.t ->
  state

val step :
  n:int ->
  t:int ->
  me:Vv_sim.Types.node_id ->
  state ->
  lround:int ->
  inbox:msg Bb_intf.inbox ->
  outbox:msg Vv_sim.Outbox.t ->
  state

val result : state -> int

val copy : state -> state
(** The identity: states are immutable. *)
