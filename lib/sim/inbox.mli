(** Read-only inbox view — the receive half of the protocol message API.

    A {!Protocol.S} step receives its round's arrivals as an indexed
    window over the engine's per-round delivery arena.  Entries appear
    in the engine's deterministic inbox order: sorted by sender id,
    ties in scheduling order (exactly the order the old assoc-list
    inboxes had).  Reading a view allocates nothing.

    Views are transient: they are valid only for the duration of the
    [step] call they are passed to (the engine reuses one view value
    and the arena behind it for every node and round).  Protocols that
    need to keep arrivals across rounds must copy them out, e.g. with
    {!to_list}. *)

type 'msg t

val length : 'msg t -> int

val src : 'msg t -> int -> Types.node_id
(** Sender of entry [i] (0-indexed within this view). *)

val msg : 'msg t -> int -> 'msg
(** Message of entry [i]. *)

val iter : (Types.node_id -> 'msg -> unit) -> 'msg t -> unit
(** Apply to every entry in inbox order. *)

val fold : ('acc -> Types.node_id -> 'msg -> 'acc) -> 'acc -> 'msg t -> 'acc

val to_list : 'msg t -> (Types.node_id * 'msg) list
(** Copy the view out as the old-style assoc list, in inbox order. *)

(** {2 Engine internals} *)

val create : unit -> 'msg t
(** An empty view (no arena attached). *)

val set_view :
  'msg t -> srcs:int array -> msgs:Obj.t array -> off:int -> len:int -> unit
(** Point the view at a window of the delivery arena.  The [msgs] array
    must hold values of type ['msg] (written via [Obj.repr]) at indices
    [off .. off+len-1]. *)

val set_empty : 'msg t -> unit
