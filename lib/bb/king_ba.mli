(** Phase-King Byzantine {e Agreement} (every node holds an input).

    [t+1] two-round Berman-Garay-Perry phases: [2(t+1)] local rounds,
    [n > 4t]. {!Phase_king} runs it behind the sender's round; the
    baseline protocols use it to align locally computed candidates. *)

type msg =
  | Val of { phase : int; value : int }
  | King of { phase : int; value : int }

val equal_msg : msg -> msg -> bool

type state

val rounds : t:int -> int
(** [2(t+1)]; step local rounds [1 .. rounds] after [start] at round 0. *)

val king_of : n:int -> int -> Vv_sim.Types.node_id

val start : int -> outbox:msg Vv_sim.Outbox.t -> state
(** [start own_value ~outbox]. *)

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
