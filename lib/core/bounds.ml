(* The paper's tolerance bounds as executable arithmetic.

   Notation: n = total nodes, t = declared tolerance, bg = B_G (honest votes
   on the runner-up option), cg = C_G (honest votes on all remaining
   options, Equation 1).  All bounds are strict lower bounds on N. *)

type kind = Bft | Cft | Sct

let pp_kind ppf = function
  | Bft -> Fmt.string ppf "BFT"
  | Cft -> Fmt.string ppf "CFT"
  | Sct -> Fmt.string ppf "SCT"

(* Theorem 3 / Theorem 5: no algorithm achieves voting validity when
   N <= 2t + 2B_G + C_G (identical for Byzantine and crash faults). *)
let validity_bound ~t ~bg ~cg = (2 * t) + (2 * bg) + cg

(* Inequality (3) (Theorem 9): Algorithm 1 is correct when
   N > max{3t, 2t + 2B_G + C_G}. *)
let bft_bound ~t ~bg ~cg = max (3 * t) (validity_bound ~t ~bg ~cg)

(* CFT needs no 3t term (Section IV-B discussion; Inequality 15 shape). *)
let cft_bound ~t ~bg ~cg = validity_bound ~t ~bg ~cg

(* Inequality (7) (Theorem 11): the safety-guaranteed protocol terminates
   with voting validity when N > 3t + 2B_G + C_G. *)
let sct_bound ~t ~bg ~cg = (3 * t) + (2 * bg) + cg

let bound kind ~t ~bg ~cg =
  match kind with
  | Bft -> bft_bound ~t ~bg ~cg
  | Cft -> cft_bound ~t ~bg ~cg
  | Sct -> sct_bound ~t ~bg ~cg

let satisfied kind ~n ~t ~bg ~cg = n > bound kind ~t ~bg ~cg

(* The local judgment condition delta_P (Section IV-B / V-A): a node
   proposes its top option when A_i - B_i > delta_P.  Theorem 10 shows no
   safety-guaranteed protocol can use delta_P < t. *)
let delta_p kind ~t = match kind with Bft | Cft -> 0 | Sct -> t

(* The gap A_G - B_G each bound forces (Property 2 needs > t; Inequality 6
   needs > 2t for SCT). *)
let required_gap kind ~t = match kind with Bft | Cft -> t + 1 | Sct -> (2 * t) + 1

(* Theorem 12: N/K > t + t_vd with t_vd = (2B_G + C_G)/K. *)
let k_of = function Bft | Cft -> 2 | Sct -> 3

let vote_dispersion_tolerance kind ~bg ~cg =
  float_of_int ((2 * bg) + cg) /. float_of_int (k_of kind)

(* Largest t the bound admits at fixed n and honest dispersion; -1 when even
   t = 0 fails. *)
let max_tolerable_t kind ~n ~bg ~cg =
  let rec go t = if satisfied kind ~n ~t ~bg ~cg then go (t + 1) else t - 1 in
  go 0

(* Inequality (14): the incremental threshold.  A node holding a_i votes for
   its local top option and c_i votes beyond the top two may safely propose
   once a_i > (n - c_i + delta_p) / 2, whatever the x missing votes are. *)
let incremental_ready ~n ~delta_p ~a_i ~c_i = 2 * a_i > n - c_i + delta_p

(* Decompose honest inputs into (A_G winner, A_G, B_G, C_G).  The [tie] rule
   fixes which of two tied options counts as the winner. *)
let decompose ~tie honest_inputs =
  match Vv_ballot.Tally.top ~tie (Vv_ballot.Tally.of_list honest_inputs) with
  | None -> None
  | Some { Vv_ballot.Tally.a; a_count; b_count; c_count; _ } ->
      Some (a, a_count, b_count, c_count)

(* Apply a bound to a concrete honest input multiset. *)
let satisfied_for kind ~tie ~n ~t honest_inputs =
  match decompose ~tie honest_inputs with
  | None -> false
  | Some (_, _, bg, cg) -> satisfied kind ~n ~t ~bg ~cg
