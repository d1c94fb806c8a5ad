(** Network topologies for the wireless (local broadcast) setting:
    constructors for the standard test graphs plus the metrics the
    multi-hop protocols rely on. All graphs are undirected without
    self-loops; adjacency lists are sorted and deduplicated. *)

type t = Vv_sim.Types.node_id list array

val size : t -> int
val neighbours : t -> Vv_sim.Types.node_id -> Vv_sim.Types.node_id list
val degree : t -> Vv_sim.Types.node_id -> int
val min_degree : t -> int

val complete : int -> t
val line : int -> t

val ring : ?k:int -> int -> t
(** Each node hears its [k] nearest neighbours on either side (default 1). *)

val grid : w:int -> h:int -> t
(** 4-neighbourhood grid; node [(x, y)] has id [y*w + x]. *)

val random_geometric : n:int -> radius:float -> seed:int -> t
(** Unit-square random geometric graph, deterministic from the seed. *)

val of_edges : n:int -> (Vv_sim.Types.node_id * Vv_sim.Types.node_id) list -> t

val distances : ?removed:Vv_sim.Types.node_id list -> t -> Vv_sim.Types.node_id -> int array
(** BFS hop counts from the source, skipping [removed] nodes; [-1] =
    unreachable. *)

val connected : ?removed:Vv_sim.Types.node_id list -> t -> bool
(** Connectivity of the graph induced on the non-removed nodes. *)

val diameter : t -> int
(** Raises [Invalid_argument] on disconnected graphs. *)
