(* Phase-King Byzantine *Agreement* (every node holds an input value).

   t+1 two-round phases of the Berman-Garay-Perry king algorithm: in
   round A every node broadcasts its current value and computes the
   plurality [maj] with multiplicity [mult]; in round B the phase's king
   broadcasts its [maj] and every node keeps [maj] if [mult > n/2 + t],
   otherwise adopts the king's value.

   This simple two-round-per-phase variant requires n > 4t (the
   persistence argument needs n - t > n/2 + t).  Validity: if every
   honest node starts with one value it keeps it through every phase;
   agreement: at least one of the t+1 kings is honest, and its phase
   aligns all honest values.  Phase_king runs it behind the sender's
   round; the baseline protocols (median/interval/strong consensus) use
   it to agree on locally computed candidates. *)

open Vv_sim

type msg = Val of { phase : int; value : int } | King of { phase : int; value : int }

let equal_msg a b =
  match (a, b) with
  | Val a, Val b -> a.phase = b.phase && a.value = b.value
  | King a, King b -> a.phase = b.phase && a.value = b.value
  | (Val _ | King _), _ -> false

type state = { current : int; maj : int; mult : int }

(* Total local rounds; a node started at local round 0 must be stepped for
   rounds 1 .. rounds. *)
let rounds ~t = 2 * (t + 1)

let king_of ~n phase = phase mod n

let start value ~outbox =
  Outbox.broadcast outbox (Val { phase = 0; value });
  { current = value; maj = Bb_intf.bottom; mult = 0 }

(* Highest count wins, ties to the smaller value — a strict total order
   on (count, value), so the scan order cannot matter. *)
let plurality ~vals ~cnts ~distinct =
  let bv = ref Bb_intf.bottom and bc = ref 0 in
  for j = 0 to distinct - 1 do
    if cnts.(j) > !bc || (cnts.(j) = !bc && vals.(j) < !bv) then begin
      bv := vals.(j);
      bc := cnts.(j)
    end
  done;
  (!bv, !bc)

let step ~n ~t ~me st ~lround ~inbox ~outbox =
  (* Round layout: 2k+1 = receive Val(k), king sends King(k);
     2k+2 = receive King(k), update, send Val(k+1) unless k = t. *)
  if lround mod 2 = 1 then begin
    let k = (lround - 1) / 2 in
    (* One Val per sender per phase (first message wins), counted into
       flat arrays — at most n distinct values, so the linear probe beats
       a pair of hash tables at every simulated size. *)
    let seen = Array.make n false in
    let vals = Array.make n 0 and cnts = Array.make n 0 in
    let distinct = ref 0 in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | Val { phase; value } when phase = k -> (
          let src = inbox.Bb_intf.srcs.(i) in
          if not seen.(src) then begin
            seen.(src) <- true;
            let j = ref 0 in
            while !j < !distinct && vals.(!j) <> value do
              incr j
            done;
            if !j < !distinct then cnts.(!j) <- cnts.(!j) + 1
            else begin
              vals.(!distinct) <- value;
              cnts.(!distinct) <- 1;
              incr distinct
            end
          end)
      | Val _ | King _ -> ()
    done;
    let maj, mult = plurality ~vals ~cnts ~distinct:!distinct in
    let st = { st with maj; mult } in
    if me = king_of ~n k then
      Outbox.broadcast outbox (King { phase = k; value = maj });
    st
  end
  else begin
    let k = (lround - 2) / 2 in
    let king = king_of ~n k in
    let king_value = ref None in
    for i = 0 to inbox.Bb_intf.len - 1 do
      match inbox.Bb_intf.msgs.(i) with
      | King { phase; value }
        when phase = k && inbox.Bb_intf.srcs.(i) = king && !king_value = None
        ->
          king_value := Some value
      | King _ | Val _ -> ()
    done;
    let king_value = !king_value in
    (* Keep maj on strong multiplicity, else follow the king (a silent
       Byzantine king leaves the current value unchanged). *)
    let v =
      if 2 * st.mult > n + (2 * t) then st.maj
      else match king_value with Some kv -> kv | None -> st.current
    in
    let st = { st with current = v } in
    if k < t then Outbox.broadcast outbox (Val { phase = k + 1; value = v });
    st
  end

let result st = st.current
