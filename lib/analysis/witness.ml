(* Constructive scenario builders for the impossibility/possibility sweeps
   (experiment E7): honest input multisets with prescribed A_G, B_G, C_G,
   and the worked examples of Sections I, IV and VII.

   These are *hand-built* tightness witnesses: each one pins a single
   below-bound configuration with a single adversary strategy.  The
   exhaustive small-model checker (lib/check) generalises them — its
   tightness oracle demands that *every* bound kind be defeated somewhere
   in the enumerated below-bound space, discovering the witness rather
   than hard-coding it.  When the checker reports a shrunk tightness
   witness it is playing the role of [lemma2_cell]/[theorem10_demo] over
   the whole small-model universe. *)

module Oid = Vv_ballot.Option_id

(* Honest inputs with exactly [ag] votes on option 0, [bg] on option 1 and
   [cg] distributed over further options in chunks small enough that option
   1 stays the runner-up.  Raises when the request is inconsistent
   (positive [cg] requires [bg >= 1], and [ag] must dominate). *)
let inputs ~ag ~bg ~cg =
  if ag < bg then invalid_arg "Witness.inputs: need ag >= bg";
  if bg < 0 || cg < 0 then invalid_arg "Witness.inputs: negative counts";
  if cg > 0 && bg = 0 then
    invalid_arg "Witness.inputs: cg > 0 requires bg >= 1";
  let chunk = max bg 1 in
  let rec spread opt remaining acc =
    if remaining = 0 then acc
    else
      let take = min chunk remaining in
      (* Keep every C-option strictly below bg unless bg itself is the
         ceiling; ties inside C are harmless. *)
      let take = if take = bg && bg > 1 then bg - 1 else take in
      let take = max 1 (min take remaining) in
      spread (opt + 1) (remaining - take)
        (acc @ List.init take (fun _ -> Oid.of_int opt))
  in
  List.init ag (fun _ -> Oid.of_int 0)
  @ List.init bg (fun _ -> Oid.of_int 1)
  @ spread 2 cg []

(* The Section I / IV motivating example: 10 nodes, 3 Byzantine, honest
   preferences {0,0,0,1,1,2,3}. *)
let section1_example =
  List.map Oid.of_int [ 0; 0; 0; 1; 1; 2; 3 ]

(* The Section VII-A arrival sequence {0,0,1,0,0,0,2,3,0,1} (N = 10). *)
let section7_sequence = [ 0; 0; 1; 0; 0; 0; 2; 3; 0; 1 ]

(* Simulate the Section VII-A single-node trace: feed the arrival sequence
   one vote at a time and report after how many receipts Inequality (14)
   first fires (with delta_P = 0). *)
let incremental_firing_point ?(delta_p = 0) ~n sequence =
  let tie = Vv_ballot.Tie_break.default in
  let rec go tally count = function
    | [] -> None
    | v :: rest -> (
        let tally = Vv_ballot.Tally.add tally (Oid.of_int v) in
        let count = count + 1 in
        match Vv_ballot.Tally.top ~tie tally with
        | Some { Vv_ballot.Tally.a_count; c_count; _ }
          when Vv_core.Bounds.incremental_ready ~n ~delta_p ~a_i:a_count
                 ~c_i:c_count ->
            Some count
        | _ -> go tally count rest)
  in
  go Vv_ballot.Tally.empty 0 sequence

(* Lemma 2 / Theorem 3 sweep cell: run Algorithm 1 with the colluding
   adversary at a prescribed honest gap and report whether exactness
   (termination with voting validity) survived. *)
type cell = {
  gap : int;
  n : int;
  bound_ok : bool;
  terminated : bool;
  valid : bool;
  exact : bool;  (* terminated && valid *)
  matches_theory : bool;
}

let lemma2_cell ~t ~bg ~cg ~gap =
  let honest = inputs ~ag:(bg + gap) ~bg ~cg in
  let ng = List.length honest in
  let n = ng + t in
  let bound_ok = Vv_core.Bounds.satisfied Vv_core.Bounds.Bft ~n ~t ~bg ~cg in
  let r =
    Vv_core.Runner.simple ~protocol:Vv_core.Runner.Algo1
      ~strategy:Vv_core.Strategy.Collude_second ~t ~f:t honest
  in
  (* Use the tie-break-aware checker: at gap = 0 the strict form is vacuous
     but the established rule still pins the required winner. *)
  let exact =
    r.Vv_core.Runner.termination && r.Vv_core.Runner.voting_validity_tb
  in
  {
    gap;
    n;
    bound_ok;
    terminated = r.Vv_core.Runner.termination;
    valid = r.Vv_core.Runner.voting_validity_tb;
    exact;
    (* Lemma 2: gap <= t lets the adversary defeat exactness; Theorem 9:
       above the bound the protocol is correct. *)
    matches_theory = (if gap <= t then not exact else exact || not bound_ok);
  }

(* Theorem 10's two indistinguishable cases, run against a lax SCT protocol
   with delta_P = t - 1.  Case 2 (honest tie, Byzantine boost on option 0)
   must fool the lax protocol while the real SCT (delta_P = t) stalls. *)
type theorem10_result = {
  lax_violates : bool;  (* delta_P = t-1 decided against the tie-break *)
  strict_safe : bool;  (* delta_P = t stayed admissible *)
}

let theorem10_demo ~t =
  if t < 1 then invalid_arg "theorem10_demo: need t >= 1";
  (* Case 2 of the proof: A_G = B_G, all Byzantine vote option 0; ties
     break towards option 1 (Prefer_larger), so deciding 0 violates the
     tie-break-aware voting validity. *)
  let k = 2 * t in
  let honest =
    List.init k (fun _ -> Oid.of_int 0) @ List.init k (fun _ -> Oid.of_int 1)
  in
  let run judgment =
    Vv_core.Runner.run
      (Vv_core.Runner.spec
         ~byzantine:(List.init t (fun i -> (2 * k) + i))
         ~protocol:Vv_core.Runner.Algo2_sct
         ~strategy:(Vv_core.Strategy.Collude_fixed 0) ~judgment_override:judgment
         ~n:((2 * k) + t) ~t
         (honest @ List.init t (fun _ -> Oid.of_int 0)))
  in
  let lax = run (Vv_core.Variant.Delta_custom (t - 1)) in
  let strict = run Vv_core.Variant.Delta_t in
  {
    lax_violates = not lax.Vv_core.Runner.voting_validity_tb;
    strict_safe = strict.Vv_core.Runner.safety_admissible
                  && not strict.Vv_core.Runner.termination;
  }
