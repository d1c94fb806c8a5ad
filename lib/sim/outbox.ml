(* Reusable send buffer — the emit half of the zero-allocation protocol
   API.

   A protocol step writes its sends into the outbox the engine passes it
   ([unicast]/[broadcast]); the engine then reads the entries back
   positionally and expands them against the topology and crash filter.
   Entries live in two parallel growable arrays: a destination word
   ([broadcast_dst] = -1 encodes a broadcast) and the message itself,
   stored untyped so one buffer can be reused for every round of a run
   without re-allocation.  In steady state emitting therefore costs two
   array writes; only capacity growth allocates.

   The untyped [Obj.t] storage is safe because the only reader,
   {!msg}, converts back at the same type 'msg the writer used — the
   phantom parameter never lets the two drift apart.  The backing array
   is created from a unit dummy (an immediate), so it is a uniform
   array even when 'msg is [float]: boxed floats go in and come back
   out unchanged, never triggering the flat-float-array representation.

   An outbox is single-owner scratch state: the engine clears it before
   every [init]/[step] call, and protocols must not retain it across
   calls. *)

type 'msg t = {
  mutable dsts : int array;  (* broadcast_dst = broadcast *)
  mutable msgs : Obj.t array;
  mutable len : int;
}

let broadcast_dst = -1

let dummy = Obj.repr ()

let create () =
  { dsts = Array.make 16 0; msgs = Array.make 16 dummy; len = 0 }

let length t = t.len

let clear t =
  (* Drop message references so a cleared outbox does not keep the last
     round's payloads alive. *)
  Array.fill t.msgs 0 t.len dummy;
  t.len <- 0

let grow t =
  let cap = Array.length t.dsts in
  let dsts = Array.make (2 * cap) 0 in
  let msgs = Array.make (2 * cap) dummy in
  Array.blit t.dsts 0 dsts 0 t.len;
  Array.blit t.msgs 0 msgs 0 t.len;
  t.dsts <- dsts;
  t.msgs <- msgs

let push t dst msg =
  if t.len = Array.length t.dsts then grow t;
  t.dsts.(t.len) <- dst;
  t.msgs.(t.len) <- Obj.repr msg;
  t.len <- t.len + 1

let unicast t dst msg =
  if dst < 0 then invalid_arg "Outbox.unicast: negative destination";
  push t dst msg

let broadcast t msg = push t broadcast_dst msg

let dst t i = t.dsts.(i)
let msg (t : 'msg t) i : 'msg = Obj.obj t.msgs.(i)

(* Append every entry of [t], with messages mapped through [f], to
   [into] — the wrapping step of an embedded sub-machine (e.g. Voting
   wrapping substrate messages into [Prepare]) — then clear [t]. *)
let transfer t ~f ~into =
  for i = 0 to t.len - 1 do
    push into t.dsts.(i) (f (msg t i))
  done;
  clear t
