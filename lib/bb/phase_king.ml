(* Phase-King Byzantine Broadcast (unauthenticated, polynomial messages).

   Round 0: the designated sender broadcasts its value; in round 1 every
   node adopts what it received from the sender (bottom if nothing) and
   starts the Berman-Garay-Perry king agreement of {!King_ba} with it, so
   local round r >= 2 is King_ba's round r - 1.  Validity: if the sender
   is honest every honest node starts King_ba with its value and keeps
   it; agreement is King_ba's. *)

open Vv_sim

let name = "phase-king"

(* Phase -1 marks the sender's round-0 transmission. *)
type msg = King_ba.msg =
  | Val of { phase : int; value : int }
  | King of { phase : int; value : int }

let equal_msg = King_ba.equal_msg

type state =
  | Sender_round of { sender : Types.node_id; current : int }
  | Agreement of King_ba.state

let rounds ~n:_ ~t = King_ba.rounds ~t + 1

let start ~n:_ ~t:_ ~me ~sender ~value ~outbox =
  match value with
  | Some v when me = sender ->
      if v < 0 then invalid_arg "Phase_king.start: negative value";
      Outbox.broadcast outbox (Val { phase = -1; value = v });
      Sender_round { sender; current = v }
  | None when me <> sender -> Sender_round { sender; current = Bb_intf.bottom }
  | Some _ -> invalid_arg "Phase_king.start: value supplied at non-sender"
  | None -> invalid_arg "Phase_king.start: sender has no value"

let step ~n ~t ~me st ~lround ~inbox ~outbox =
  match st with
  | Sender_round { sender; current } ->
      (* The value the designated sender sent us in round 0, if any. *)
      let v = ref current in
      for i = 0 to inbox.Bb_intf.len - 1 do
        match inbox.Bb_intf.msgs.(i) with
        | Val { phase = -1; value } when inbox.Bb_intf.srcs.(i) = sender ->
            v := value
        | Val _ | King _ -> ()
      done;
      Agreement (King_ba.start !v ~outbox)
  | Agreement ba ->
      Agreement (King_ba.step ~n ~t ~me ba ~lround:(lround - 1) ~inbox ~outbox)

let copy st = st

let result = function
  | Sender_round { current; _ } -> current
  | Agreement ba -> King_ba.result ba
