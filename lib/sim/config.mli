(** Static description of one simulated system run. *)

type t = private {
  n : int;  (** total number of nodes (the paper's N) *)
  t_max : int;  (** declared tolerance t, known to all nodes *)
  faults : Fault.t array;  (** actual per-node fault plans (defines f) *)
  compiled : Fault.compiled array;
      (** delivery predicates precomputed from [faults] at construction *)
  comm : Types.comm_model;
  delay : Delay.t;
  max_rounds : int;  (** engine cut-off; a stall is reported, not an error *)
  seed : int;
  topology : Types.node_id list array option;
      (** undirected adjacency; [None] = complete graph. A broadcast
          reaches the sender's neighbourhood (plus itself); the radio
          constraint of [Local_broadcast] is enforced per neighbourhood. *)
  network : Network.t;
      (** chaos substrate between send and delivery; [Network.none]
          (the default) is the paper's reliable network *)
  retransmit : Retransmit.t option;
      (** retransmission policy for chaos-destroyed deliveries; [None]
          (the default) leaves losses final *)
  reach_arr : Types.node_id array array;
      (** per-source broadcast recipients (neighbourhood plus self,
          ascending), precomputed at {!make}; the engine's allocation-free
          expansion path.  Do not mutate. *)
  reach_list : Types.node_id list array;
      (** the same recipients as cached lists (what {!reach} returns) *)
}

val make :
  ?faults:Fault.t array ->
  ?comm:Types.comm_model ->
  ?delay:Delay.t ->
  ?max_rounds:int ->
  ?seed:int ->
  ?topology:Types.node_id list array ->
  ?network:Network.t ->
  ?retransmit:Retransmit.t ->
  n:int ->
  t_max:int ->
  unit ->
  t
(** Validates sizes, crash plans, topology (length [n], symmetric, no
    self-loops or duplicates), chaos-plan node ids, and — via a probe
    sweep over every [(round, src, dst)] — user-supplied delay schedules,
    so malformed schedules fail here (naming the offending point) rather
    than mid-run. Defaults: all honest, point-to-point,
    {!Delay.synchronous}, 200 rounds, fixed seed, complete graph, no
    chaos, no retransmission. *)

val reach : t -> Types.node_id -> Types.node_id list
(** Recipients of a broadcast from the node: its neighbourhood plus
    itself (every node under the complete graph), ascending. *)

val honest_ids : t -> Types.node_id list
val byzantine_ids : t -> Types.node_id list

val faulty_count : t -> int
(** The actual number of faulty nodes f (Byzantine + crash). *)

val fault_of : t -> Types.node_id -> Fault.t

val delivers : t -> src:Types.node_id -> round:int -> dst:Types.node_id -> bool
(** O(1) crash filter: whether a message sent by [src] in [round] survives
    [src]'s fault plan (the compiled form of {!Fault.delivers}). *)

val within_tolerance : t -> bool
(** [f <= t]. *)

val with_byzantine :
  ?comm:Types.comm_model ->
  ?delay:Delay.t ->
  ?max_rounds:int ->
  ?seed:int ->
  ?topology:Types.node_id list array ->
  ?network:Network.t ->
  ?retransmit:Retransmit.t ->
  n:int ->
  t_max:int ->
  Types.node_id list ->
  unit ->
  t
(** All nodes honest except the listed Byzantine ones. *)
