(** Phase-King Byzantine Broadcast (unauthenticated, polynomial messages).

    The sender's round in front of {!King_ba}'s [t+1] two-round
    Berman-Garay-Perry phases; requires [n > 4t] (this simple
    two-round-per-phase variant's persistence argument needs
    [n - t > n/2 + t]). Implements {!Bb_intf.S}. *)

val name : string

type msg = King_ba.msg =
  | Val of { phase : int; value : int }
      (** phase [-1] is the sender's round-0 transmission *)
  | King of { phase : int; value : int }

val equal_msg : msg -> msg -> bool

type state

val rounds : n:int -> t:int -> int
(** [2(t+1) + 1]. *)

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
