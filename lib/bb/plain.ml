(* Plain (unprotected) sender broadcast as a degenerate BB sub-machine.

   The sender broadcasts its value once; receivers adopt the first value
   heard from the sender.  This is a *reliable* broadcast only when the
   sender cannot equivocate: an honest or crash-faulty sender, or any
   sender under the local broadcast model (Property 6).  Algorithm 4 and
   the CFT voting protocol use it in Phase 1, which is exactly why they
   shed the N > 3t term of Inequality (3). *)

open Vv_sim

let name = "plain"

type msg = int

let equal_msg = Int.equal

type state = { sender : Types.node_id; received : int }

let rounds ~n:_ ~t:_ = 1

let start ~n:_ ~t:_ ~me ~sender ~value ~outbox =
  match value with
  | Some v when me = sender ->
      if v < 0 then invalid_arg "Plain.start: negative value";
      Outbox.broadcast outbox v;
      { sender; received = v }
  | None when me <> sender -> { sender; received = Bb_intf.bottom }
  | Some _ -> invalid_arg "Plain.start: value supplied at non-sender"
  | None -> invalid_arg "Plain.start: sender has no value"

let step ~n:_ ~t:_ ~me:_ st ~lround:_ ~inbox ~outbox:_ =
  let received = ref st.received in
  for i = 0 to inbox.Bb_intf.len - 1 do
    let v = inbox.Bb_intf.msgs.(i) in
    if inbox.Bb_intf.srcs.(i) = st.sender && !received = Bb_intf.bottom && v >= 0
    then received := v
  done;
  { st with received = !received }

let copy st = st

let result st = st.received
