(** Reusable send buffer — the emit half of the protocol message API.

    A {!Protocol.S} step receives an outbox (cleared by the engine) and
    pushes its sends into it with {!unicast} / {!broadcast}; the engine
    reads the entries back positionally.  Emitting into a warm outbox
    allocates nothing: entries land in preallocated parallel arrays that
    are reused for every round of a run.

    Outboxes are single-owner scratch state: the engine clears the
    buffer before each protocol call, and protocols must not retain a
    reference to it across calls. *)

type 'msg t

val create : unit -> 'msg t
(** A fresh outbox (initial capacity 16 entries). *)

val clear : 'msg t -> unit
(** Forget all entries (and drop their message references). *)

val length : 'msg t -> int

val unicast : 'msg t -> Types.node_id -> 'msg -> unit
(** Queue a point-to-point send.  Only legal under
    {!Types.Point_to_point}; the engine rejects it (with
    [Invalid_argument]) under local broadcast when it expands the
    entry. *)

val broadcast : 'msg t -> 'msg -> unit
(** Queue a broadcast to the sender's whole neighbourhood (itself
    included). *)

(** {2 Reading entries back} (engine and embedding protocols) *)

val broadcast_dst : int
(** The destination word encoding a broadcast: [-1]. *)

val dst : 'msg t -> int -> int
(** Destination of entry [i]: a node id, or {!broadcast_dst}. *)

val msg : 'msg t -> int -> 'msg
(** Message of entry [i]. *)

val transfer : 'a t -> f:('a -> 'b) -> into:'b t -> unit
(** [transfer t ~f ~into] appends every entry of [t] to [into] with the
    message mapped through [f] (destinations unchanged), then clears
    [t].  This is how an embedding protocol wraps the output of a
    sub-machine (e.g. substrate messages into its own [Prepare]
    constructor). *)
