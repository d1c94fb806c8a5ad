(* Read-only inbox view — the receive half of the zero-allocation
   protocol API.

   The engine sorts each round's deliveries into one arena (grouped by
   recipient, sorted by sender id, stable in scheduling order — the
   same deterministic order the old assoc-list inboxes had) and hands
   every node a *view*: an (offset, length) window over the arena's
   parallel source/message arrays.  One view value is reused for all
   nodes of all rounds, so reading an inbox allocates nothing.

   Like {!Outbox.t}, the message array is untyped [Obj.t] storage; the
   phantom parameter guarantees reader and writer agree on 'msg.  Views
   are transient: they are only valid for the duration of the
   [Protocol.S.step] call they are passed to, and protocols must copy
   out (e.g. via [to_list]) anything they want to keep. *)

type 'msg t = {
  mutable srcs : int array;  (* arena: sender ids *)
  mutable msgs : Obj.t array;  (* arena: messages, parallel to [srcs] *)
  mutable off : int;
  mutable len : int;
}

let create () = { srcs = [||]; msgs = [||]; off = 0; len = 0 }

let set_view t ~srcs ~msgs ~off ~len =
  t.srcs <- srcs;
  t.msgs <- msgs;
  t.off <- off;
  t.len <- len

let set_empty t = t.len <- 0

let length t = t.len

let src t i = t.srcs.(t.off + i)
let msg (t : 'msg t) i : 'msg = Obj.obj t.msgs.(t.off + i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (src t i) (msg t i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (src t i) (msg t i)
  done;
  !acc

let to_list t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((src t i, msg t i) :: acc)
  in
  go (t.len - 1) []

