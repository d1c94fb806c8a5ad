(* Retransmission policy: capped exponential backoff in round units.
   See retransmit.mli for the simulation-level ack model. *)

type t = { base : int; cap : int; max_attempts : int }

let make ?(base = 1) ?(cap = 8) ?(max_attempts = 5) () =
  if base < 1 then invalid_arg "Retransmit.make: base must be >= 1";
  if cap < base then invalid_arg "Retransmit.make: cap must be >= base";
  if max_attempts < 1 then
    invalid_arg "Retransmit.make: max_attempts must be >= 1";
  { base; cap; max_attempts }

let default = make ()

let backoff t ~attempt =
  if attempt < 1 then invalid_arg "Retransmit.backoff: attempt must be >= 1";
  (* Shift-free doubling that cannot overflow for sane attempt counts:
     stop growing once the cap is reached. *)
  let rec grow b k = if k <= 1 || b >= t.cap then b else grow (b * 2) (k - 1) in
  min (grow t.base attempt) t.cap
