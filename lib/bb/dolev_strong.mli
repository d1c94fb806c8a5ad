(** Dolev-Strong authenticated Byzantine Broadcast.

    [t+1] rounds; agreement and (honest-sender) validity for any [t < n]
    given unforgeable signatures ({!Auth}). The default Phase-1 substrate
    of Algorithms 1-3. Implements {!Bb_intf.S}. *)

val name : string

type msg = int Auth.chain
(** Signature chains over the broadcast value; exposed so Byzantine-sender
    adversaries can craft equivocating initial chains via
    {!Auth.initial}. *)

val equal_msg : msg -> msg -> bool

type state

val rounds : n:int -> t:int -> int
(** [t + 1]. *)

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
(** The unique accepted value, or {!Bb_intf.bottom} on none/equivocation. *)

val copy : state -> state
(** The identity: states are immutable. *)
