(* Tests of the paper's protocols: bounds arithmetic, Algorithm 1 (BFT),
   Algorithm 2 (safety-guaranteed), Algorithm 3 (incremental threshold),
   Algorithm 4 (local broadcast), the CFT variant, and the theorem-level
   properties under adversarial strategies. *)

module Oid = Vv_ballot.Option_id
module Bounds = Vv_core.Bounds
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy

let o = Oid.of_int
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let opt_testable = Alcotest.testable Oid.pp Oid.equal
let check_out = check (Alcotest.list (Alcotest.option opt_testable))

(* --- bounds --- *)

let test_bounds_arithmetic () =
  (* Section IV example numbers: B_G = 2, C_G = 2 from {0,0,0,1,1,2,3}. *)
  check_int "validity bound" 12 (Bounds.validity_bound ~t:3 ~bg:2 ~cg:2);
  check_int "bft bound" 12 (Bounds.bft_bound ~t:3 ~bg:2 ~cg:2);
  check_int "bft bound 3t binds" 9 (Bounds.bft_bound ~t:3 ~bg:0 ~cg:0);
  check_int "cft bound" 6 (Bounds.cft_bound ~t:3 ~bg:0 ~cg:0);
  check_int "sct bound" 13 (Bounds.sct_bound ~t:3 ~bg:1 ~cg:2);
  check_bool "satisfied" true (Bounds.satisfied Bounds.Bft ~n:13 ~t:3 ~bg:2 ~cg:2);
  check_bool "not satisfied" false
    (Bounds.satisfied Bounds.Bft ~n:12 ~t:3 ~bg:2 ~cg:2)

let test_bounds_gap_and_k () =
  check_int "bft gap" 4 (Bounds.required_gap Bounds.Bft ~t:3);
  check_int "sct gap" 7 (Bounds.required_gap Bounds.Sct ~t:3);
  check_int "delta_p bft" 0 (Bounds.delta_p Bounds.Bft ~t:5);
  check_int "delta_p sct" 5 (Bounds.delta_p Bounds.Sct ~t:5);
  check_int "k bft" 2 (Bounds.k_of Bounds.Bft);
  check_int "k sct" 3 (Bounds.k_of Bounds.Sct);
  check (Alcotest.float 1e-9) "t_vd" 2.0
    (Bounds.vote_dispersion_tolerance Bounds.Bft ~bg:1 ~cg:2)

let test_bounds_decompose () =
  let inputs = [ o 0; o 0; o 0; o 1; o 1; o 2; o 3 ] in
  match Bounds.decompose ~tie:Vv_ballot.Tie_break.default inputs with
  | None -> Alcotest.fail "decompose"
  | Some (w, ag, bg, cg) ->
      check opt_testable "winner" (o 0) w;
      check_int "A_G" 3 ag;
      check_int "B_G" 2 bg;
      check_int "C_G" 2 cg

let test_max_tolerable () =
  (* n = 13, bg = 2, cg = 2: BFT needs n > max(3t, 2t+6): t=3 gives 12 < 13. *)
  check_int "bft t" 3 (Bounds.max_tolerable_t Bounds.Bft ~n:13 ~bg:2 ~cg:2);
  check_int "sct smaller" 2 (Bounds.max_tolerable_t Bounds.Sct ~n:13 ~bg:2 ~cg:2)

let test_incremental_inequality () =
  (* Section VII-A example: N = 10, after 7 arrivals {0,0,1,0,0,0,2} the
     node holds A_i = 5 (zeros), C_i = 2 ({2} is third, plus... A=5 zeros,
     B=1 one, C=1 two): a_i=5, c_i=1: 10 > 10 - 1 + 0 ? 2*5 > 9 yes. *)
  check_bool "fires at seventh vote" true
    (Bounds.incremental_ready ~n:10 ~delta_p:0 ~a_i:5 ~c_i:1);
  check_bool "not before" false
    (Bounds.incremental_ready ~n:10 ~delta_p:0 ~a_i:4 ~c_i:1)

(* --- Algorithm 1 --- *)

(* Tolerance satisfied: honest {0,0,0,0,0,1}, t = f = 1, N = 7.
   Bound: max(3, 2 + 2*1 + 0) = 4 < 7. *)
let winning_inputs = [ o 0; o 0; o 0; o 0; o 0; o 1 ]

let test_algo1_decides_plurality () =
  let r = Runner.simple ~protocol:Runner.Algo1 ~t:1 ~f:1 winning_inputs in
  check_bool "termination" true r.Runner.termination;
  check_bool "agreement" true r.Runner.agreement;
  check_bool "voting validity" true r.Runner.voting_validity;
  check_out "all output A" (List.map (fun _ -> Some (o 0)) winning_inputs)
    r.Runner.outputs

let test_algo1_all_strategies_hold () =
  List.iter
    (fun strategy ->
      let r = Runner.simple ~protocol:Runner.Algo1 ~strategy ~t:1 ~f:1 winning_inputs in
      check_bool "termination" true r.Runner.termination;
      check_bool "validity" true r.Runner.voting_validity)
    [
      Strategy.Passive;
      Strategy.Collude_second;
      Strategy.Collude_fixed 1;
      Strategy.Split_top2;
      Strategy.Propose_second;
      Strategy.Random_votes 3;
      Strategy.Late_collude 1;
      Strategy.Late_collude 4;
    ]

let test_algo1_all_bb_substrates () =
  List.iter
    (fun bb ->
      let r =
        Runner.simple ~protocol:Runner.Algo1 ~bb ~t:1 ~f:1
          ~strategy:Strategy.Collude_second winning_inputs
      in
      check_bool "termination" true r.Runner.termination;
      check_bool "validity" true r.Runner.voting_validity)
    [ Vv_bb.Bb.Dolev_strong; Vv_bb.Bb.Eig; Vv_bb.Bb.Phase_king ]

(* The Section I motivating example: N = 10, t = 3, honest inputs
   {0,0,0,1,1,2,3}.  Bound 2t + 2B_G + C_G = 12 >= 10, so colluding
   Byzantine votes on option 1 flip every honest view: Algorithm 1
   terminates on the WRONG value — exactness is lost (Lemma 2). *)
let example_inputs = [ o 0; o 0; o 0; o 1; o 1; o 2; o 3 ]

let test_algo1_violation_below_bound () =
  let r =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second ~t:3
      ~f:3 example_inputs
  in
  check_bool "terminates" true r.Runner.termination;
  check_bool "agreement still holds" true r.Runner.agreement;
  check_bool "voting validity VIOLATED" false r.Runner.voting_validity;
  check_out "all fooled to B"
    (List.map (fun _ -> Some (o 1)) example_inputs)
    r.Runner.outputs

(* The strong adversary's timing power: colluding votes released within
   the 2*delta wait window flip the outcome (Lemma 2); votes withheld past
   the window miss the tally and the honest plurality survives even below
   the bound.  The bound is about worst-case adversaries, not all. *)
let test_algo1_late_collusion_timing () =
  let within =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:(Strategy.Late_collude 1)
      ~t:3 ~f:3 example_inputs
  in
  check_bool "within window: terminates" true within.Runner.termination;
  check_bool "within window: validity lost" false within.Runner.voting_validity;
  let too_late =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:(Strategy.Late_collude 5)
      ~t:3 ~f:3 example_inputs
  in
  check_bool "past window: terminates" true too_late.Runner.termination;
  check_bool "past window: plurality survives" true
    too_late.Runner.voting_validity

(* Byzantine speaker staying silent: subject never delivered, honest nodes
   never vote; stall without validity violation. *)
let test_algo1_byzantine_speaker_silent () =
  let inputs = List.init 7 (fun _ -> o 0) in
  let r =
    Runner.run
      (Runner.spec ~byzantine:[ 0 ] ~protocol:Runner.Algo1
         ~strategy:Strategy.Passive ~n:7 ~t:1 ~speaker:0 inputs)
  in
  check_bool "stalled" true r.Runner.stalled;
  check_bool "no termination" false r.Runner.termination;
  check_bool "validity vacuous" true r.Runner.voting_validity

(* --- Algorithm 2 (safety-guaranteed) --- *)

let test_sct_decides_when_bound_holds () =
  (* honest {0 x6, 1}: B_G = 1, C_G = 0; SCT bound 3t + 2 = 5 < N = 8. *)
  let honest = [ o 0; o 0; o 0; o 0; o 0; o 0; o 1 ] in
  let r =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
      ~t:1 ~f:1 honest
  in
  check_bool "termination" true r.Runner.termination;
  check_bool "validity" true r.Runner.voting_validity;
  check_bool "agreement" true r.Runner.agreement

let test_sct_stalls_not_lies_below_bound () =
  (* The same adversarial scenario that fooled Algorithm 1: SCT must either
     output the true plurality or nothing (Definition V.1 / Property 5). *)
  let r =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
      ~t:3 ~f:3 example_inputs
  in
  check_bool "safety admissible" true r.Runner.safety_admissible;
  check_bool "did not terminate" false r.Runner.termination;
  check_bool "stalled" true r.Runner.stalled

let test_sct_resists_forged_proposes () =
  (* Propose_second injects t propose-B messages; quorum is t+1, so they
     can never decide alone (Theorem 11 agreement argument). *)
  let honest = [ o 0; o 0; o 0; o 0; o 0; o 0; o 1 ] in
  let r =
    Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Propose_second
      ~t:1 ~f:1 honest
  in
  check_bool "termination" true r.Runner.termination;
  check_bool "validity" true r.Runner.voting_validity;
  check_bool "agreement" true r.Runner.agreement

(* A Byzantine vote listing several options is no stronger than a
   one-option vote: honest {1 x3, 0 x2}, and nodes 5 and 6 vote for 0
   in the round the honest votes go out, once listing 0 alone and once
   with 2 and 3 besides.  Under sct-incremental both runs must stall.
   Were Inequality (14) judged on the other options' endorsements rather
   than on the unheard voters, the four extra endorsements would let
   every honest node propose 0 and decide it on t+1 = 3 proposes. *)
let test_sct_incremental_many_option_vote () =
  let module V = Vv_core.Voting.Make (Vv_bb.Plain) in
  let cfg = Vv_sim.Config.with_byzantine ~n:7 ~t_max:2 [ 5; 6 ] () in
  let run ballot =
    let adversary =
      Vv_sim.Adversary.of_script ~quiet_trigger:true ~name:"many-option"
        ~trigger:(fun view ->
          match V.observed_votes view with
          | (_, (s, _)) :: _ -> Some s
          | [] -> None)
        ~interp:(fun s () view ->
          V.broadcast_from_all view (V.Vote { subject = s; ballot }))
        [ () ]
    in
    let inputs id =
      {
        V.variant = Vv_core.Variant.sct_incremental;
        speaker = 0;
        subject = 1;
        ballot = [ o (List.nth [ 1; 1; 1; 0; 0; 0; 0 ] id) ];
      }
    in
    V.E.honest_outputs (V.E.run_exn cfg ~inputs ~adversary ())
  in
  let one = run [ o 0 ] and many = run [ o 0; o 2; o 3 ] in
  check_out "stalls" [ None; None; None; None; None ] one;
  check_out "same outputs" one many

(* --- Algorithm 3 (incremental threshold) --- *)

let test_incremental_matches_algo1 () =
  let r1 = Runner.simple ~protocol:Runner.Algo1 ~t:1 ~f:1 winning_inputs in
  let r3 =
    Runner.simple ~protocol:Runner.Algo3_incremental ~t:1 ~f:1 winning_inputs
  in
  check_out "same outputs" r1.Runner.outputs r3.Runner.outputs;
  check_bool "incremental not slower" true (r3.Runner.rounds <= r1.Runner.rounds)

let test_incremental_under_staggered_delays () =
  let delay = Vv_sim.Delay.Uniform { lo = 1; hi = 4 } in
  let r1 =
    Runner.simple ~protocol:Runner.Algo1 ~delay ~t:1 ~f:1
      ~strategy:Strategy.Collude_second winning_inputs
  in
  let r3 =
    Runner.simple ~protocol:Runner.Algo3_incremental ~delay ~t:1 ~f:1
      ~strategy:Strategy.Collude_second winning_inputs
  in
  check_bool "algo1 terminates" true r1.Runner.termination;
  check_bool "algo3 terminates" true r3.Runner.termination;
  check_bool "algo3 validity" true r3.Runner.voting_validity;
  check_bool "algo3 strictly faster here" true
    (r3.Runner.rounds < r1.Runner.rounds)

(* --- Algorithm 4 (local broadcast) --- *)

let test_algo4_beats_3t () =
  (* N = 9, t = 3: Algorithm 1's Inequality (3) fails (3t = 9 = N) but
     Algorithm 4 only needs N > 2t + 2B_G + C_G = 8. *)
  let honest = [ o 0; o 0; o 0; o 0; o 0; o 1 ] in
  check_bool "precondition: validity bound ok" true
    (Bounds.satisfied Bounds.Cft ~n:9 ~t:3 ~bg:1 ~cg:0);
  check_bool "precondition: bft bound fails" false
    (Bounds.satisfied Bounds.Bft ~n:9 ~t:3 ~bg:1 ~cg:0);
  let r =
    Runner.simple ~protocol:Runner.Algo4_local ~strategy:Strategy.Collude_second
      ~t:3 ~f:3 honest
  in
  check_bool "termination" true r.Runner.termination;
  check_bool "validity" true r.Runner.voting_validity;
  check_bool "agreement" true r.Runner.agreement

let test_algo4_rejects_equivocation () =
  (* Split_top2 equivocates; the engine must refuse it under the local
     broadcast model (Property 6's premise). *)
  let honest = [ o 0; o 0; o 0; o 0; o 0; o 1 ] in
  try
    ignore
      (Runner.simple ~protocol:Runner.Algo4_local ~strategy:Strategy.Split_top2
         ~t:3 ~f:3 honest);
    Alcotest.fail "equivocation must be rejected under local broadcast"
  with Vv_sim.Engine.Invalid_adversary _ -> ()

(* --- CFT --- *)

let test_cft_with_crash_mid_vote () =
  (* honest {0,0,0,1}, one crash node preferring 1 that crashes while
     broadcasting its vote (round 1), reaching only nodes 0 and 2: the
     Lemma 4 X_i <> X_G situation.  Bound: N = 5 > 2t + 2B_G + C_G = 4. *)
  let inputs = [ o 0; o 0; o 0; o 1; o 1 ] in
  let r =
    Runner.run
      (Runner.spec ~crash:[ (4, 1, [ 0; 2 ]) ] ~protocol:Runner.Cft ~n:5 ~t:1
         inputs)
  in
  check_bool "termination" true r.Runner.termination;
  check_bool "validity" true r.Runner.voting_validity;
  check_bool "agreement" true r.Runner.agreement;
  check_int "honest count" 4 (List.length r.Runner.outputs)

let test_cft_crash_flips_below_bound () =
  (* Theorem 5 realised with crash faults only: honest {0,0,1}, two crash
     nodes preferring 1 whose votes reach everyone before they die.  The
     honest view shows three 1s against two 0s, so the protocol terminates
     on 1 — exactness lost without a single Byzantine node. *)
  let everyone = [ 0; 1; 2; 3; 4 ] in
  let inputs = [ o 0; o 0; o 1; o 1; o 1 ] in
  let r =
    Runner.run
      (Runner.spec
         ~crash:[ (3, 2, everyone); (4, 2, everyone) ]
         ~protocol:Runner.Cft ~n:5 ~t:2 inputs)
  in
  check_bool "terminates" true r.Runner.termination;
  check_bool "agreement holds" true r.Runner.agreement;
  check_bool "voting validity lost to crashes" false r.Runner.voting_validity;
  check_out "all flipped to B" [ Some (o 1); Some (o 1); Some (o 1) ]
    r.Runner.outputs

let test_cft_stalls_below_bound () =
  (* honest {0,0,1}: A_G - B_G = 1 <= t = 1; the crash node's vote for 1
     equalises the counts, no node clears delta_P = 0, stall (Lemma 4). *)
  let inputs = [ o 0; o 0; o 1; o 1 ] in
  let r =
    Runner.run
      (Runner.spec ~crash:[ (3, 1, [ 0; 1; 2; 3 ]) ] ~protocol:Runner.Cft ~n:4
         ~t:1 inputs)
  in
  check_bool "no termination" false r.Runner.termination;
  check_bool "validity preserved" true r.Runner.voting_validity

(* --- cross-cutting --- *)

let test_runner_determinism () =
  let go () =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:(Strategy.Random_votes 5)
      ~t:2 ~f:2 example_inputs
  in
  let a = go () and b = go () in
  check_out "same outputs" a.Runner.outputs b.Runner.outputs;
  check_int "same rounds" a.Runner.rounds b.Runner.rounds

let test_tie_break_parameter_end_to_end () =
  (* The established tie rule flows through the whole protocol: on an
     honest tie plus one Byzantine booster of the rule's winner, the
     decided option follows the configured convention. *)
  let tied = [ o 0; o 0; o 1; o 1; o 2 ] in
  let winner_under tie target =
    let r =
      Runner.run
        (Runner.spec ~byzantine:[ 5 ] ~protocol:Runner.Algo1
           ~strategy:(Strategy.Collude_fixed target) ~tie ~n:6 ~t:1
           (tied @ [ o 0 ]))
    in
    List.filter_map Fun.id r.Runner.outputs
  in
  (match winner_under Vv_ballot.Tie_break.Prefer_smaller 0 with
  | w :: _ -> check opt_testable "smaller convention" (o 0) w
  | [] -> Alcotest.fail "no decision under prefer-smaller");
  match winner_under Vv_ballot.Tie_break.Prefer_larger 1 with
  | w :: _ -> check opt_testable "larger convention" (o 1) w
  | [] -> Alcotest.fail "no decision under prefer-larger"

(* The outcome's verdicts come from one honest-input summary per run
   (per cell on the scripted path); the summary must equal a fresh one of
   the spec's honest inputs under the spec's tie rule, and each verdict
   the Property instance's over it, on tied and untied electorates,
   through the unscripted and the scripted (memoised) paths. *)
let test_outcome_verdicts () =
  let module Validity = Vv_ballot.Validity in
  let module Property = Vv_ballot.Property in
  let check_outcome what (s : Runner.spec) honest_inputs (r : Runner.outcome) =
    let honest = Validity.summarize ~tie:s.Runner.tie honest_inputs
    and outputs = r.Runner.outputs in
    let admissible p =
      Property.admissible p honest ~t_tol:s.Runner.t ~outputs
    in
    let verdict name want got = check_bool (what ^ ": " ^ name) want got in
    verdict "summary" true (r.Runner.honest = honest);
    verdict "voting" (admissible Property.voting_strict)
      r.Runner.voting_validity;
    verdict "voting-tb" (admissible Property.voting) r.Runner.voting_validity_tb;
    verdict "strong" (admissible Property.strong) r.Runner.strong_validity;
    verdict "safety" (admissible Property.voting) r.Runner.safety_admissible;
    verdict "termination" (Validity.termination ~outputs) r.Runner.termination;
    verdict "agreement" (Validity.agreement ~outputs) r.Runner.agreement
  in
  let decided_against = ref 0 in
  List.iter
    (fun tie ->
      List.iter
        (fun honest ->
          List.iter
            (fun strategy ->
              let s =
                Runner.simple_spec ~tie ~strategy ~t:1 ~f:1 (List.map o honest)
              in
              let what =
                Fmt.str "%a %a %a" Vv_ballot.Tie_break.pp tie
                  Fmt.(Dump.list int) honest Strategy.pp strategy
              in
              let r = Runner.run s in
              check_outcome what s (List.map o honest) r;
              if not r.Runner.voting_validity_tb then incr decided_against)
            Strategy.
              [
                Passive;
                Collude_second;
                Collude_fixed 1;
                Scripted [ Vote_all 1; Propose_all 1 ];
                Scripted [ Vote_all 0; Propose_all 0 ];
              ])
        [ [ 0; 0; 1; 1 ]; [ 0; 0; 1; 1; 2 ]; [ 0; 0; 0; 1 ] ])
    Vv_ballot.Tie_break.[ Prefer_larger; Prefer_smaller ];
  (* the electorates are small enough that some runs decide against the
     rule, so the verdicts are not vacuously true *)
  check_bool "some run decides against the plurality" true
    (!decided_against > 0)

(* The CLI parses protocol names through [Runner.protocol_of_name]: each
   label [vvc] prints must parse back to its protocol, the older aliases
   must keep working, and anything else is refused. *)
let test_protocol_names () =
  let name = Alcotest.testable Fmt.string String.equal in
  let parsed s = Option.map Runner.protocol_label (Runner.protocol_of_name s) in
  List.iter
    (fun p ->
      let label = Runner.protocol_label p in
      check (Alcotest.option name) label (Some label) (parsed label))
    Runner.protocols;
  check_int "six protocols" 6 (List.length Runner.protocols);
  List.iter
    (fun (alias, label) ->
      check (Alcotest.option name) alias (Some label) (parsed alias))
    [ ("algo2", "algo2-sct"); ("sct", "algo2-sct"); ("algo3", "algo3-incr");
      ("incremental", "algo3-incr"); ("algo4", "algo4-local");
      ("local", "algo4-local"); ("sct-incremental", "sct-incr") ];
  check (Alcotest.option name) "unknown" None (parsed "algo5")

let test_scale_n40 () =
  (* A full Algorithm 1 instance at N = 40, t = f = 8 with a decisive
     electorate: correctness and bounded runtime at an order of magnitude
     above the paper's examples. *)
  let honest = Vv_analysis.Witness.inputs ~ag:28 ~bg:3 ~cg:1 in
  let r =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
      ~t:8 ~f:8 honest
  in
  check_bool "termination" true r.Runner.termination;
  check_bool "agreement" true r.Runner.agreement;
  check_bool "validity" true r.Runner.voting_validity;
  check_int "all honest decided" 32 (List.length r.Runner.outputs)

let test_tie_stalls_without_faults () =
  (* A_G = B_G: the Def III.3 premise fails; with delta_P = 0 no node sees a
     strict gap, so the protocol stalls rather than guess. *)
  let inputs = [ o 0; o 0; o 1; o 1 ] in
  let r = Runner.run (Runner.spec ~n:4 ~t:0 ~protocol:Runner.Algo1 inputs) in
  check_bool "stalled" true r.Runner.stalled;
  check_bool "validity vacuous" true r.Runner.voting_validity

(* --- property tests: the theorems themselves --- *)

let gen_scenario =
  (* Random honest inputs over <= 4 options plus a tolerance; returns
     (honest inputs as ints, t). *)
  QCheck.make
    ~print:(fun (l, t) -> Fmt.str "inputs=%a t=%d" Fmt.(Dump.list int) l t)
    QCheck.Gen.(
      let* ng = int_range 3 9 in
      let* l = list_size (return ng) (int_range 0 3) in
      let* t = int_range 0 2 in
      return (l, t))

let theorem9 =
  (* Theorem 9: whenever N > max{3t, 2t+2B_G+C_G} (with f = t Byzantine
     colluding on the runner-up), Algorithm 1 terminates with agreement and
     voting validity. *)
  QCheck.Test.make ~count:60 ~name:"Theorem 9: Algorithm 1 correct above bound"
    gen_scenario (fun (l, t) ->
      let honest = List.map o l in
      let n = List.length honest + t in
      QCheck.assume
        (Bounds.satisfied_for Bounds.Bft ~tie:Vv_ballot.Tie_break.default ~n ~t
           honest);
      let r =
        Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
          ~t ~f:t honest
      in
      r.Runner.termination && r.Runner.agreement && r.Runner.voting_validity)

let theorem11 =
  QCheck.Test.make ~count:60
    ~name:"Theorem 11: SCT correct above its bound" gen_scenario (fun (l, t) ->
      let honest = List.map o l in
      let n = List.length honest + t in
      QCheck.assume
        (Bounds.satisfied_for Bounds.Sct ~tie:Vv_ballot.Tie_break.default ~n ~t
           honest);
      let r =
        Runner.simple ~protocol:Runner.Algo2_sct
          ~strategy:Strategy.Propose_second ~t ~f:t honest
      in
      r.Runner.termination && r.Runner.agreement && r.Runner.voting_validity)

let property5 =
  (* Property 5 / Definition V.1: REGARDLESS of the bound, SCT's output is
     the honest plurality or nothing. *)
  QCheck.Test.make ~count:100
    ~name:"Property 5: SCT safety-admissible everywhere" gen_scenario
    (fun (l, t) ->
      let honest = List.map o l in
      let r =
        Runner.simple ~protocol:Runner.Algo2_sct
          ~strategy:Strategy.Collude_second ~t ~f:t honest
      in
      let r2 =
        Runner.simple ~protocol:Runner.Algo2_sct
          ~strategy:Strategy.Propose_second ~t ~f:t honest
      in
      r.Runner.safety_admissible && r2.Runner.safety_admissible)

let incremental_equivalence =
  (* Algorithm 3 decides the same value as Algorithm 1 whenever both
     terminate (synchronous network). *)
  QCheck.Test.make ~count:60 ~name:"Algorithm 3 output matches Algorithm 1"
    gen_scenario (fun (l, t) ->
      let honest = List.map o l in
      let r1 =
        Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
          ~t ~f:t honest
      in
      let r3 =
        Runner.simple ~protocol:Runner.Algo3_incremental
          ~strategy:Strategy.Collude_second ~t ~f:t honest
      in
      (not (r1.Runner.termination && r3.Runner.termination))
      || r1.Runner.outputs = r3.Runner.outputs)

let agreement_always_algo1 =
  (* Agreement must hold for Algorithm 1 whenever N > 3t even when the
     dispersion bound fails (Lemma 7 only needs N > 3t). *)
  QCheck.Test.make ~count:100 ~name:"Lemma 7: agreement whenever N > 3t"
    gen_scenario (fun (l, t) ->
      let honest = List.map o l in
      let n = List.length honest + t in
      QCheck.assume (n > 3 * t);
      let r =
        Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Split_top2 ~t
          ~f:t honest
      in
      r.Runner.agreement)

let theorem_algo4 =
  (* Algorithm 4's Inequality (15): above N > 2t + 2B_G + C_G, local
     broadcast voting is correct with f = t colluders even when N <= 3t. *)
  QCheck.Test.make ~count:60
    ~name:"Inequality 15: Algorithm 4 correct above its bound" gen_scenario
    (fun (l, t) ->
      let honest = List.map o l in
      let n = List.length honest + t in
      QCheck.assume
        (Bounds.satisfied_for Bounds.Cft ~tie:Vv_ballot.Tie_break.default ~n ~t
           honest);
      let r =
        Runner.simple ~protocol:Runner.Algo4_local
          ~strategy:Strategy.Collude_second ~t ~f:t honest
      in
      r.Runner.termination && r.Runner.agreement && r.Runner.voting_validity)

let gen_cft_scenario =
  (* Random honest inputs plus a random crash schedule: each crash node
     gets a crash round in the vote window and a random recipient subset. *)
  QCheck.make
    ~print:(fun (l, t, seed) ->
      Fmt.str "inputs=%a t=%d seed=%d" Fmt.(Dump.list int) l t seed)
    QCheck.Gen.(
      let* ng = int_range 3 8 in
      let* l = list_size (return ng) (int_range 0 2) in
      let* t = int_range 1 2 in
      let* seed = int_range 0 10_000 in
      return (l, t, seed))

let cft_crash_spec (l, t, seed) =
  let honest = List.map o l in
  let ng = List.length honest in
  let n = ng + t in
  let rng = Vv_prelude.Rng.create seed in
  let crash =
    List.init t (fun i ->
        let node = ng + i in
        let at_round = Vv_prelude.Rng.int rng 4 in
        let deliver_to =
          List.filter
            (fun _ -> Vv_prelude.Rng.bool rng)
            (List.init n Fun.id)
        in
        (node, at_round, deliver_to))
  in
  let inputs = honest @ List.init t (fun _ -> o 1) in
  Runner.spec ~crash ~protocol:Runner.Cft ~seed ~n ~t inputs

let lemma4_cft_validity =
  (* CFT voting under arbitrary mid-broadcast crash schedules (crash nodes
     prefer the runner-up — the Lemma 4 worst case).  Agreement always
     holds (N > 2t quorum intersection); termination AND voting validity
     hold whenever the Theorem 5 bound does.  Below the bound anything but
     disagreement may happen — crash faults defeat exactness just like
     Byzantine ones (the paper's "identical impossibility results"). *)
  QCheck.Test.make ~count:80 ~name:"Theorem 5: CFT correct above its bound"
    gen_cft_scenario (fun ((l, t, _) as sc) ->
      let honest = List.map o l in
      let n = List.length honest + t in
      let r = Runner.run (cft_crash_spec sc) in
      let bound_ok =
        Bounds.satisfied_for Bounds.Cft ~tie:Vv_ballot.Tie_break.default ~n ~t
          honest
      in
      r.Runner.agreement
      && ((not bound_ok) || (r.Runner.termination && r.Runner.voting_validity)))

let sct_incremental_safety =
  (* The combined variant (Section VII-A note): incremental trigger with
     delta_P = t keeps Definition V.1 everywhere. *)
  QCheck.Test.make ~count:60 ~name:"SCT-incremental safety-admissible"
    gen_scenario (fun (l, t) ->
      let honest = List.map o l in
      let r =
        Runner.simple ~protocol:Runner.Sct_incremental
          ~strategy:Strategy.Collude_second ~t ~f:t honest
      in
      r.Runner.safety_admissible)

(* --- engine pause/resume --- *)

(* A run paused after the honest steps of any round and resumed must
   equal the uninterrupted run — outputs, rounds, stall flag and trace —
   over every substrate and over the engine's less-travelled paths:
   staggered delays, a chaos network, retransmission and a crash. *)
module Resume (Sub : Vv_bb.Bb_intf.S) = struct
  module V = Vv_core.Voting.Make (Sub)
  module Trace = Vv_sim.Trace

  let check_same what (want : V.E.result) (got : V.E.result) =
    check_bool (what ^ ": outputs") true (want.V.E.outputs = got.V.E.outputs);
    check_bool (what ^ ": decision rounds") true
      (want.V.E.decision_round = got.V.E.decision_round);
    check_int (what ^ ": rounds used") want.V.E.rounds_used got.V.E.rounds_used;
    check_bool (what ^ ": stalled") want.V.E.stalled got.V.E.stalled;
    check Alcotest.string (what ^ ": trace csv") (Trace.to_csv want.V.E.trace)
      (Trace.to_csv got.V.E.trace);
    check Alcotest.string (what ^ ": trace json")
      (Vv_prelude.Json.to_string (Trace.to_json want.V.E.trace))
      (Vv_prelude.Json.to_string (Trace.to_json got.V.E.trace));
    check_bool (what ^ ": trace") true (want.V.E.trace = got.V.E.trace)

  (* [check_same] without rendering the traces, unless they differ. *)
  let check_equal what (want : V.E.result) (got : V.E.result) =
    if
      not
        (want.V.E.outputs = got.V.E.outputs
        && want.V.E.decision_round = got.V.E.decision_round
        && want.V.E.rounds_used = got.V.E.rounds_used
        && want.V.E.stalled = got.V.E.stalled
        && want.V.E.trace = got.V.E.trace)
    then check_same what want got

  let inputs id =
    {
      V.variant = Vv_core.Variant.algo1;
      speaker = 0;
      subject = 1;
      ballot = [ o (if id < 3 then 0 else 1) ];
    }

  let ok what = function
    | Ok x -> x
    | Error (`Invalid_adversary reason) -> Alcotest.failf "%s: %s" what reason

  (* A resume without a pause runs to the end. *)
  let finished what r =
    match ok what r with
    | V.E.Finished res -> res
    | V.E.Paused _ -> Alcotest.failf "%s: paused without a pause" what

  (* A stateless adversary that reads the Byzantine inboxes: each
     Byzantine node forwards what it received to node 0.  Resuming it
     twice checks that the paused round's inboxes survive a resume. *)
  let echo =
    Vv_sim.Adversary.named ~quiescent:(fun () -> true) "echo" (fun view ->
        List.concat_map
          (fun src ->
            List.map
              (fun (_, msg) -> { Vv_sim.Adversary.src; dst = 0; msg })
              (view.Vv_sim.Adversary.byz_inbox src))
          view.Vv_sim.Adversary.byzantine)

  (* Pause at every round the run executes.  The passive and echo
     adversaries are stateless, so each checkpoint is resumed twice; the
     collude-second instance that ran the prefix is resumed once. *)
  let test (label, cfg) =
    let run adversary = V.E.run_exn cfg ~inputs ~adversary () in
    let passive = run (V.adversary_of Strategy.Passive) in
    let echoed = run echo in
    let collude = run (V.adversary_of Strategy.Collude_second) in
    (* the paths each configuration is here for are taken *)
    let tr = passive.V.E.trace in
    check_bool (label ^ ": adversaries act") true
      (collude.V.E.trace.Trace.byz_msgs > 0
      && echoed.V.E.trace.Trace.byz_msgs > 0);
    (match label with
    | "chaos" ->
        check_bool "chaos drops and duplicates" true
          (tr.Trace.dropped_msgs > 0 && tr.Trace.dup_msgs > 0)
    | "retransmit" ->
        check_bool "retransmissions fire" true (tr.Trace.retrans_msgs > 0)
    | _ -> ());
    let rounds =
      List.fold_left
        (fun acc r -> max acc r.V.E.rounds_used)
        0 [ passive; echoed; collude ]
    in
    for round = 0 to rounds - 1 do
      let what = Fmt.str "%s/%s, paused at round %d" Sub.name label round in
      let prefix adversary =
        ok what
          (V.E.run_prefix cfg ~inputs ~copy:V.P.copy ~adversary
             ~pause:(fun view -> view.Vv_sim.Adversary.round = round)
             ())
      in
      List.iter
        (fun (adversary, whole) ->
          match prefix adversary with
          | V.E.Finished res -> check_same (what ^ ", finished") whole res
          | V.E.Paused cp ->
              check_same (what ^ ", first resume") whole
                (finished what (V.E.resume cp ~adversary ()));
              check_same (what ^ ", second resume") whole
                (finished what (V.E.resume cp ~adversary ())))
        [ (V.adversary_of Strategy.Passive, passive); (echo, echoed) ];
      let adversary = V.adversary_of Strategy.Collude_second in
      match prefix adversary with
      | V.E.Finished res -> check_same (what ^ ", collude finished") collude res
      | V.E.Paused cp ->
          check_same (what ^ ", collude") collude
            (finished what (V.E.resume cp ~adversary ()))
    done

  (* Chained checkpoints: pause at every round [p], resume with a pause
     at every later round [q], and finish the new checkpoint.  One
     adversary instance drives each chain, so the stateful collude-second
     gets a fresh prefix per chain; the stateless ones share one prefix
     per [p], which afterwards still resumes to the same run, because no
     resume writes a checkpoint. *)
  let test_chain (label, cfg) =
    let run adversary = V.E.run_exn cfg ~inputs ~adversary () in
    (* (stateful, a fresh instance) *)
    let adversaries =
      [
        (false, fun () -> V.adversary_of Strategy.Passive);
        (false, fun () -> echo);
        (true, fun () -> V.adversary_of Strategy.Collude_second);
      ]
    in
    let rounds =
      List.fold_left
        (fun acc (_, fresh) -> max acc (run (fresh ())).V.E.rounds_used)
        0 adversaries
    in
    let at round view = view.Vv_sim.Adversary.round = round in
    let prefix what adversary p =
      ok what
        (V.E.run_prefix cfg ~inputs ~copy:V.P.copy ~adversary ~pause:(at p) ())
    in
    (* a chain pauses at [q] exactly when a run paused at [q] does *)
    let chain what (reaches, whole) adversary cp q =
      match ok what (V.E.resume cp ~adversary ~pause:(at q) ()) with
      | V.E.Finished res ->
          check_bool (what ^ ", finished early") false reaches.(q);
          check_equal (what ^ ", finished") whole res
      | V.E.Paused cp' ->
          check_bool (what ^ ", paused") true reaches.(q);
          check_equal (what ^ ", chained") whole
            (finished what (V.E.resume cp' ~adversary ()))
    in
    let cases =
      List.map
        (fun (stateful, fresh) ->
          let reaches =
            Array.init rounds (fun q ->
                match prefix "reach" (fresh ()) q with
                | V.E.Paused _ -> true
                | V.E.Finished _ -> false)
          in
          (stateful, fresh, (reaches, run (fresh ()))))
        adversaries
    in
    for p = 0 to rounds - 1 do
      List.iteri
        (fun i (stateful, fresh, ((_, whole) as want)) ->
          let what q =
            Fmt.str "%s/%s, adversary %d, paused at %d then %d" Sub.name label
              i p q
          in
          if not stateful then begin
            let adversary = fresh () in
            match prefix (what p) adversary p with
            | V.E.Finished res -> check_equal (what p) whole res
            | V.E.Paused cp ->
                for q = p + 1 to rounds - 1 do
                  chain (what q) want adversary cp q
                done;
                check_equal (what p ^ ", first checkpoint afterwards") whole
                  (finished (what p) (V.E.resume cp ~adversary ()))
          end
          else
            for q = p + 1 to rounds - 1 do
              let adversary = fresh () in
              match prefix (what q) adversary p with
              | V.E.Finished res -> check_equal (what q) whole res
              | V.E.Paused cp -> chain (what q) want adversary cp q
            done)
        cases
    done
end

let resume_configs =
  let open Vv_sim in
  let faults ?(crash = false) () =
    Array.init 6 (fun id ->
        if id = 5 then Fault.Byzantine
        else if crash && id = 4 then
          Fault.Crash { at_round = 3; deliver_to = [ 0; 2 ] }
        else Fault.Honest)
  in
  let make ?crash ?(delay = Delay.synchronous) ?network ?retransmit
      ?(max_rounds = 40) () =
    Config.make ~faults:(faults ?crash ()) ~delay ?network ?retransmit
      ~max_rounds ~seed:17 ~n:6 ~t_max:1 ()
  in
  let chaos = Network.make ~drop:0.1 ~duplicate:0.1 ~jitter:1 ~seed:5 () in
  [
    ("uniform", make ~delay:(Delay.Uniform { lo = 1; hi = 2 }) ());
    ("chaos", make ~delay:(Delay.Uniform { lo = 1; hi = 2 }) ~network:chaos ());
    ( "retransmit",
      make
        ~network:(Network.make ~drop:0.05 ~seed:9 ())
        ~retransmit:(Retransmit.make ~base:1 ~cap:2 ())
        () );
    ("crash", make ~crash:true ());
    (* A delay past the scheduler's 16 initial slots: round 0's messages
       to the Byzantine node land 17 rounds later, in the slot of round
       1's live bucket, so every run grows its schedule in round 0 and
       each later checkpoint copies a grown one (the runs decide before
       those messages land).  [Uniform] with hi = 20 would too, but hi
       is also the protocols' delta, which puts Phase King's first vote
       past round 100. *)
    ( "long delay",
      make
        ~delay:
          (Delay.Eventually_synchronous
             {
               gst = 20;
               bound = 1;
               schedule =
                 Some
                   (fun ~round ~src:_ ~dst ->
                     if round = 0 && dst = 5 then 17 else 1);
             })
        ~max_rounds:60 () );
  ]

module Ds = Resume (Vv_bb.Dolev_strong)
module Eig = Resume (Vv_bb.Eig)
module Pk = Resume (Vv_bb.Phase_king)
module Plain = Resume (Vv_bb.Plain)

let test_resume_equals_uninterrupted () =
  List.iter
    (fun c ->
      Ds.test c;
      Eig.test c;
      Pk.test c;
      Plain.test c)
    resume_configs

let test_chained_checkpoints () =
  List.iter
    (fun c ->
      Ds.test_chain c;
      Eig.test_chain c;
      Pk.test_chain c;
      Plain.test_chain c)
    resume_configs

(* The engine's quiet tail on a real protocol: an SCT run that stalls
   (n = 9, t = 2, honest inputs 0,0,0,1,1,2,0, collude-second from nodes 7
   and 8) fast-forwards once its adversary has acted and every node is
   inert.  Against a never-quiescent twin of the same adversary every
   round is stepped; the two runs must agree on everything a caller can
   see.  A checkpoint taken at any round of the stepped part resumes to
   the same run. *)
module Sct_tail = struct
  module V = Ds.V
  module Trace = Vv_sim.Trace

  let cfg max_rounds =
    Vv_sim.Config.make
      ~faults:
        (Array.init 9 (fun id ->
             if id >= 7 then Vv_sim.Fault.Byzantine else Vv_sim.Fault.Honest))
      ~max_rounds ~n:9 ~t_max:2 ()

  let inputs id =
    {
      V.variant = Vv_core.Variant.algo2_sct;
      speaker = 0;
      subject = 1;
      ballot = [ o (List.nth [ 0; 0; 0; 1; 1; 2; 0; 0; 0 ] id) ];
    }

  let collude () = V.adversary_of Strategy.Collude_second

  let stepping (a : V.msg Vv_sim.Adversary.t) =
    { a with Vv_sim.Adversary.passive = false; quiescent = (fun () -> false) }

  let check_same = Ds.check_same

  let last (r : V.E.result) =
    let l = r.V.E.trace.Trace.rounds in
    List.nth l (List.length l - 1)

  let test_stepped () =
    List.iter
      (fun max_rounds ->
        let what = Fmt.str "sct, max_rounds %d" max_rounds in
        let run adversary = V.E.run_exn (cfg max_rounds) ~inputs ~adversary () in
        let fast = run (collude ()) in
        let stepped = run (stepping (collude ())) in
        check_same what stepped fast;
        check_bool (what ^ ": stalled") true fast.V.E.stalled;
        check_int (what ^ ": budget used") max_rounds fast.V.E.rounds_used;
        (* a budget the run outlives ends in the shared tail *)
        if max_rounds >= 60 then
          check_bool (what ^ ": tail shared") true
            (last (run (collude ())) == last fast))
      [ 2; 7; 60; 200 ]

  let test_resume () =
    let cfg = cfg 60 in
    let whole = V.E.run_exn cfg ~inputs ~adversary:(collude ()) () in
    let stepped =
      V.E.run_exn cfg ~inputs ~adversary:(stepping (collude ())) ()
    in
    (* the last round with traffic; the tail starts after it *)
    let busy =
      List.fold_left
        (fun acc (r : Trace.round_record) ->
          if r.Trace.honest_sent + r.Trace.byz_sent > 0 then r.Trace.round
          else acc)
        0 whole.V.E.trace.Trace.rounds
    in
    check_bool "the run goes quiet well before its budget" true (busy + 2 < 60);
    for p = 0 to busy + 1 do
      let what = Fmt.str "sct, paused at round %d" p in
      let adversary = collude () in
      match
        V.E.run_prefix cfg ~inputs ~copy:V.P.copy ~adversary
          ~pause:(fun view -> view.Vv_sim.Adversary.round = p)
          ()
      with
      | Ok (V.E.Paused cp) -> (
          match V.E.resume cp ~adversary () with
          | Ok (V.E.Finished res) ->
              check_same what whole res;
              check_same (what ^ " vs stepped") stepped res
          | Ok (V.E.Paused _) | Error _ -> Alcotest.fail what)
      | Ok (V.E.Finished _) | Error _ -> Alcotest.fail what
    done
end

(* Prefix sharing end to end: one [execute_scripted] prefix, every script
   of a small alphabet resumed from it, each equal to its own full run. *)
let test_execute_scripted () =
  let module V = Vv_core.Voting.Make (Vv_bb.Dolev_strong) in
  let cfg =
    Vv_sim.Config.make
      ~faults:
        (Array.init 5 (fun id ->
             if id = 4 then Vv_sim.Fault.Byzantine else Vv_sim.Fault.Honest))
      ~max_rounds:30 ~n:5 ~t_max:1 ()
  in
  let variant = Vv_core.Variant.algo1 and speaker = 0 and subject = 1 in
  let preferences id = o (if id < 2 then 0 else 1) in
  let finish = V.execute_scripted cfg ~variant ~speaker ~subject ~preferences in
  let alphabet =
    Strategy.[ Skip; Vote_all 0; Vote_all 1; Propose_all 1; Vote_split (0, 1) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let script = [ a; b ] in
          let want =
            V.execute_checked cfg ~variant ~speaker ~subject ~preferences
              ~strategy:(Strategy.Scripted script)
          in
          check_bool
            (Fmt.str "%a" Strategy.pp_script script)
            true
            (want = finish script))
        alphabet)
    alphabet

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      theorem9;
      theorem11;
      property5;
      incremental_equivalence;
      agreement_always_algo1;
      theorem_algo4;
      lemma4_cft_validity;
      sct_incremental_safety;
    ]

let () =
  Alcotest.run "core"
    [
      ( "bounds",
        [
          Alcotest.test_case "arithmetic" `Quick test_bounds_arithmetic;
          Alcotest.test_case "gaps and K" `Quick test_bounds_gap_and_k;
          Alcotest.test_case "decompose" `Quick test_bounds_decompose;
          Alcotest.test_case "max tolerable t" `Quick test_max_tolerable;
          Alcotest.test_case "incremental inequality (14)" `Quick
            test_incremental_inequality;
        ] );
      ( "algo1",
        [
          Alcotest.test_case "decides plurality" `Quick test_algo1_decides_plurality;
          Alcotest.test_case "all strategies above bound" `Quick
            test_algo1_all_strategies_hold;
          Alcotest.test_case "all BB substrates" `Quick test_algo1_all_bb_substrates;
          Alcotest.test_case "violation below bound (Lemma 2)" `Quick
            test_algo1_violation_below_bound;
          Alcotest.test_case "late collusion timing" `Quick
            test_algo1_late_collusion_timing;
          Alcotest.test_case "silent Byzantine speaker stalls" `Quick
            test_algo1_byzantine_speaker_silent;
        ] );
      ( "algo2-sct",
        [
          Alcotest.test_case "decides above bound" `Quick
            test_sct_decides_when_bound_holds;
          Alcotest.test_case "stalls, never lies, below bound" `Quick
            test_sct_stalls_not_lies_below_bound;
          Alcotest.test_case "resists forged proposes" `Quick
            test_sct_resists_forged_proposes;
          Alcotest.test_case "many-option votes cannot rush (14)" `Quick
            test_sct_incremental_many_option_vote;
        ] );
      ( "algo3-incremental",
        [
          Alcotest.test_case "matches Algorithm 1" `Quick
            test_incremental_matches_algo1;
          Alcotest.test_case "faster under staggered delays" `Quick
            test_incremental_under_staggered_delays;
        ] );
      ( "algo4-local",
        [
          Alcotest.test_case "works beyond 3t" `Quick test_algo4_beats_3t;
          Alcotest.test_case "equivocation rejected" `Quick
            test_algo4_rejects_equivocation;
        ] );
      ( "cft",
        [
          Alcotest.test_case "crash mid-vote tolerated" `Quick
            test_cft_with_crash_mid_vote;
          Alcotest.test_case "crash-only validity flip (Theorem 5)" `Quick
            test_cft_crash_flips_below_bound;
          Alcotest.test_case "stalls below bound (Lemma 4)" `Quick
            test_cft_stalls_below_bound;
        ] );
      ( "cross-cutting",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_determinism;
          Alcotest.test_case "tie-break parameter end-to-end" `Quick
            test_tie_break_parameter_end_to_end;
          Alcotest.test_case "outcome verdicts = Validity predicates" `Quick
            test_outcome_verdicts;
          Alcotest.test_case "protocol labels parse back" `Quick
            test_protocol_names;
          Alcotest.test_case "scale: N=40, t=8" `Quick test_scale_n40;
          Alcotest.test_case "tie stalls without faults" `Quick
            test_tie_stalls_without_faults;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resumed run equals uninterrupted" `Quick
            test_resume_equals_uninterrupted;
          Alcotest.test_case "chained checkpoints" `Quick
            test_chained_checkpoints;
          Alcotest.test_case "scripts resume one shared prefix" `Quick
            test_execute_scripted;
          Alcotest.test_case "sct quiet tail = stepped tail" `Quick
            Sct_tail.test_stepped;
          Alcotest.test_case "sct checkpoint before the quiet tail" `Quick
            Sct_tail.test_resume;
        ] );
      ("theorems", qcheck_cases);
    ]
