(* Dolev-Strong authenticated Byzantine Broadcast.

   The designated sender signs its value and broadcasts it.  A message
   arriving at local round r is accepted when it carries a valid chain of
   exactly r distinct signatures starting with the sender's.  On first
   acceptance of a new value a node adds its own signature and relays
   (relaying stops once two distinct values are known — a proof of sender
   equivocation — and after round t, whose chains cannot grow to t+1 valid
   signatures in time).  After round t+1 a node outputs the unique accepted
   value, or bottom.

   Tolerates any number of faults for agreement (t < n) given unforgeable
   signatures; runs in t+1 rounds. *)

open Vv_sim

let name = "dolev-strong"

type msg = int Auth.chain

let equal_msg = Auth.equal_chain Int.equal

type state = {
  sender : Types.node_id;
  extracted : int list;  (* accepted values, at most 2 kept *)
  done_ : bool;
}

let rounds ~n:_ ~t = t + 1

let start ~n:_ ~t:_ ~me ~sender ~value ~outbox =
  match value with
  | Some v when me = sender ->
      if v < 0 then invalid_arg "Dolev_strong.start: negative value";
      Outbox.broadcast outbox (Auth.initial ~sender v);
      { sender; extracted = [ v ]; done_ = false }
  | None when me <> sender -> { sender; extracted = []; done_ = false }
  | Some _ -> invalid_arg "Dolev_strong.start: value supplied at non-sender"
  | None -> invalid_arg "Dolev_strong.start: sender has no value"

let step ~n:_ ~t ~me st ~lround ~inbox ~outbox =
  if st.done_ then st
  else begin
    let extracted = ref st.extracted in
    for i = 0 to inbox.Bb_intf.len - 1 do
      let chain = inbox.Bb_intf.msgs.(i) in
      let v = chain.Auth.value in
      let fresh = not (List.exists (fun (x : int) -> x = v) !extracted) in
      let want_more = List.compare_length_with !extracted 2 < 0 in
      if
        fresh && want_more && v >= 0
        && Auth.valid chain ~sender:st.sender ~len:lround
        && not (Auth.mem_signer chain me)
      then begin
        extracted := !extracted @ [ v ];
        (* Relaying after round t is pointless: the chain could not reach
           the required t+1 signatures by the last round. *)
        if lround <= t then
          Outbox.broadcast outbox (Auth.extend chain ~signer:me)
      end
    done;
    let done_ = lround >= t + 1 in
    { st with extracted = !extracted; done_ }
  end

let copy st = st

let result st =
  match st.extracted with [ v ] -> v | [] | _ :: _ -> Bb_intf.bottom
