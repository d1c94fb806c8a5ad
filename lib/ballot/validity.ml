(* The paper's correctness properties (Section III-C) over honest inputs,
   local views and protocol outputs, other than its validity properties:
   those (Definitions III.3 and V.1 among them) are {!Property} instances
   over the honest-input summary below. *)

let honest_tally inputs = Tally.of_list inputs

(* Definition III.1: A > B iff strictly more non-faulty nodes support A. *)
let voting_preference ~honest_inputs a b =
  let t = honest_tally honest_inputs in
  Tally.count t a > Tally.count t b

(* Everything the plurality-based properties read from the honest inputs,
   from one tally and one ranking.  Strictness compares the two highest
   counts, which every tie-break rule ranks alike. *)
type summary = {
  inputs : Option_id.t list;
  plurality : Option_id.t option;
  strict : bool;
}

let summarize ~tie inputs =
  match Tally.top ~tie (honest_tally inputs) with
  | None -> { inputs; plurality = None; strict = false }
  | Some top ->
      { inputs; plurality = Some top.Tally.a;
        strict = top.Tally.a_count > top.Tally.b_count }

let honest_plurality ~tie ~honest_inputs =
  (summarize ~tie honest_inputs).plurality

(* True when one option strictly beats every other honest option, i.e. the
   premise of Definition III.3 holds without needing the tie-break rule. *)
let has_strict_plurality ~honest_inputs =
  (summarize ~tie:Tie_break.default honest_inputs).strict

(* Agreement: all decided outputs are identical. *)
let agreement ~outputs =
  let decided = List.filter_map Fun.id outputs in
  match decided with
  | [] -> true
  | x :: rest -> List.for_all (Option_id.equal x) rest

(* Termination (for a single run): every honest node decided. *)
let termination ~outputs = List.for_all Option.is_some outputs

(* Definition III.2 (integrity): a non-faulty node must not output A while
   its local view shows some other option with at least as many votes. *)
let integrity_allows ~view ~output =
  let a = Tally.count view output in
  List.for_all
    (fun (x, c) -> Option_id.equal x output || c < a)
    (Tally.support view)

(* delta-differential validity (Fitzi-Garay [23], discussed in Section II):
   no option may beat the decided output by more than [delta] honest votes.
   Voting validity is exactly the delta = 0 case restricted to strict
   pluralities; any voting-valid output is delta-differential for all
   delta >= 0. *)
let differential_validity ~delta ~honest_inputs ~outputs =
  if delta < 0 then invalid_arg "differential_validity: negative delta";
  let t = honest_tally honest_inputs in
  List.for_all
    (function
      | None -> true
      | Some v ->
          let cv = Tally.count t v in
          List.for_all (fun (_, c) -> c <= cv + delta) (Tally.support t))
    outputs
