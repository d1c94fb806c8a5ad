(** Exponential-Information-Gathering Byzantine Broadcast (unauthenticated).

    Sender round plus [t+1] exchange rounds over repetition-free relay
    paths, resolved bottom-up by strict majority; the tight unauthenticated
    bound [n > 3t] at exponential message cost (guarded by
    {!max_tree_size}). Implements {!Bb_intf.S}. *)

val name : string
val max_tree_size : int

type msg =
  | Init of int  (** the sender's round-0 value *)
  | Report of { path : Vv_sim.Types.node_id list; value : int }

val equal_msg : msg -> msg -> bool

val compare_msg : msg -> msg -> int
(** Total order: [Init] before [Report]; [Report] by path (lexicographic),
    then value.  The deterministic relay emission order. *)

type state

val tree_size : n:int -> t:int -> int
(** Number of repetition-free paths of length [<= t+1] over [n] ids. *)

val rounds : n:int -> t:int -> int
(** [t + 2]. *)

val start :
  n:int ->
  t:int ->
  me:Vv_sim.Types.node_id ->
  sender:Vv_sim.Types.node_id ->
  value:int option ->
  outbox:msg Vv_sim.Outbox.t ->
  state
(** Raises [Invalid_argument] when the EIG tree would exceed
    {!max_tree_size}. *)

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
(** Copies the relay tree, the only mutable part of a state. *)
