(* Tests of the library extensions: multi-round sessions (Section V-B),
   approval voting, and multi-dimensional voting validity. *)

module Oid = Vv_ballot.Option_id
module Runner = Vv_core.Runner
module Session = Vv_core.Session
module Strategy = Vv_core.Strategy
module Multidim = Vv_core.Multidim

let o = Oid.of_int
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let opt_testable = Alcotest.testable Oid.pp Oid.equal

(* --- Session --- *)

let thin_inputs = List.map o [ 0; 0; 0; 1; 1; 2; 3 ]

let test_session_single_round_when_decisive () =
  let honest = List.map o [ 0; 0; 0; 0; 0; 0; 1 ] in
  let r = Session.run ~t:1 ~f:1 honest in
  check_int "one session" 1 r.Session.sessions_used;
  check (Alcotest.option opt_testable) "decided leader" (Some (o 0))
    r.Session.decided

let test_session_revote_until_decided () =
  (* SCT stalls on the thin Section-I inputs at t = 2; bandwagon adjustment
     concentrates support until the gap clears 2t. *)
  let r =
    Session.run ~policy:Session.Bandwagon ~max_sessions:8 ~t:2 ~f:2
      thin_inputs
  in
  check_bool "eventually decided" true (r.Session.decided <> None);
  check_bool "took more than one session" true (r.Session.sessions_used > 1);
  (* Every attempt that terminated must satisfy voting validity for the
     inputs *of that attempt* (exactness is never sacrificed). *)
  List.iter
    (fun (a : Session.attempt) ->
      if a.Session.outcome.Runner.termination then
        check_bool "attempt valid" true
          a.Session.outcome.Runner.voting_validity_tb)
    r.Session.attempts

let test_session_respects_max () =
  (* A dead tie never resolves under Abandon_third (both options are in the
     top two, nobody moves). *)
  let tied = List.map o [ 0; 0; 1; 1 ] in
  let r =
    Session.run ~policy:Session.Abandon_third ~max_sessions:3 ~t:1 ~f:1 tied
  in
  check_int "hit the cap" 3 r.Session.sessions_used;
  check (Alcotest.option opt_testable) "no decision" None r.Session.decided

let test_adjust_abandon_third () =
  let rng = Vv_prelude.Rng.create 4 in
  let inputs = List.map o [ 0; 0; 0; 1; 1; 2; 3 ] in
  let adjusted =
    Session.adjust ~tie:Vv_ballot.Tie_break.default ~rng Session.Abandon_third
      inputs
  in
  check_int "same electorate size" (List.length inputs) (List.length adjusted);
  (* No third options remain; top-two voters kept their choice. *)
  List.iter
    (fun v -> check_bool "top-two only" true (Oid.to_int v <= 1))
    adjusted;
  List.iteri
    (fun i v ->
      if Oid.to_int (List.nth inputs i) <= 1 then
        check opt_testable "loyal voter untouched" (List.nth inputs i) v)
    adjusted

let test_adjust_custom () =
  let rng = Vv_prelude.Rng.create 4 in
  let everyone_leader =
    Session.Custom (fun ~rng:_ ~leader ~runner_up:_ _ -> leader)
  in
  let adjusted =
    Session.adjust ~tie:Vv_ballot.Tie_break.default ~rng everyone_leader
      thin_inputs
  in
  List.iter (fun v -> check opt_testable "all leader" (o 0) v) adjusted

(* --- Approval voting --- *)

module Approval = Vv_core.Approval

let run_approval ?(collude = true) ?(quorum_gap = 0) ~n ~t ~byz approvals =
  let cfg = Vv_sim.Config.with_byzantine ~n ~t_max:t byz () in
  Approval.execute cfg ~speaker:0 ~subject:1
    ~approvals:(fun id -> approvals id)
    ~quorum_gap ~collude ()

let test_approval_plain_majority () =
  (* 6 honest voters; options {0,1,2}.  Everyone approves 0 plus a side
     option: option 0 collects 6 endorsements, others at most 3. *)
  let approvals id = [ o 0; o (1 + (id mod 2)) ] in
  let r = run_approval ~n:7 ~t:1 ~byz:[ 6 ] approvals in
  check_bool "not stalled" false r.Vv_core.Approval.stalled;
  List.iter
    (fun out ->
      check (Alcotest.option opt_testable) "winner 0" (Some (o 0)) out)
    r.Vv_core.Approval.outputs

let test_approval_collusion_cannot_flip_wide_gap () =
  (* Endorsements: 0 -> 6, 1 -> 2; gap 4 > t = 1 even after a colluding
     endorsement lands on 1. *)
  let approvals id = if id < 2 then [ o 0; o 1 ] else [ o 0 ] in
  let r = run_approval ~n:7 ~t:1 ~byz:[ 6 ] approvals in
  List.iter
    (fun out ->
      check (Alcotest.option opt_testable) "winner intact" (Some (o 0)) out)
    r.Vv_core.Approval.outputs

let test_approval_thin_gap_attackable () =
  (* Endorsements: 0 -> 4, 1 -> 3 (gap 1 = t): the colluder closes it. *)
  let approvals id = if id < 3 then [ o 0; o 1 ] else [ o 0 ] in
  let r = run_approval ~n:5 ~t:1 ~byz:[ 4 ] approvals in
  let honest_approvals = List.init 4 approvals in
  let exact =
    Vv_core.Approval.approval_validity ~tie:Vv_ballot.Tie_break.default
      ~honest_approvals ~outputs:r.Vv_core.Approval.outputs
  in
  let terminated =
    List.for_all Option.is_some r.Vv_core.Approval.outputs
  in
  check_bool "exactness lost below the bound" false (exact && terminated)

let test_approval_duplicate_endorsements_ignored () =
  (* A voter listing an option twice endorses it once. *)
  let approvals id = if id = 0 then [ o 0; o 0; o 0 ] else [ o 0; o 1 ] in
  let r = run_approval ~collude:false ~n:5 ~t:1 ~byz:[ 4 ] approvals in
  List.iter
    (fun out -> check (Alcotest.option opt_testable) "winner 0" (Some (o 0)) out)
    r.Vv_core.Approval.outputs

let test_approval_rejects_empty_set () =
  Alcotest.check_raises "empty approval set"
    (Invalid_argument "Approval: empty approval set") (fun () ->
      ignore (run_approval ~collude:false ~n:4 ~t:0 ~byz:[] (fun _ -> [])))

(* One state machine: approval over singleton sets, with no collusion
   and a zero gap, outputs what plurality voting does under CFT. *)
let test_approval_singletons_are_plurality () =
  List.iter
    (fun (t, honest) ->
      let honest = List.map o honest in
      let ng = List.length honest in
      let plurality =
        Runner.simple ~protocol:Runner.Cft ~strategy:Strategy.Passive ~t ~f:t
          honest
      in
      let r =
        run_approval ~collude:false ~n:(ng + t) ~t
          ~byz:(List.init t (fun i -> ng + i))
          (fun id -> [ List.nth honest (Int.min id (ng - 1)) ])
      in
      check
        (Alcotest.list (Alcotest.option opt_testable))
        "outputs" plurality.Runner.outputs r.Vv_core.Approval.outputs)
    [
      (1, [ 0; 0; 0; 1; 1; 2 ]); (1, [ 0; 0; 1; 1 ]); (1, [ 0; 1; 2; 3 ]);
      (2, [ 0; 0; 0; 0; 1; 1; 2 ]);
    ]

(* A Byzantine ballot that lists the runner-up three times endorses it
   once: the run equals the one where it lists it once, and the
   runner-up is never decided.  Counted three times, it would lead by
   two and be decided. *)
let test_approval_byzantine_duplicates () =
  let module V = Vv_core.Voting.Make (Vv_bb.Plain) in
  let cfg = Vv_sim.Config.with_byzantine ~n:7 ~t_max:1 [ 6 ] () in
  let run ballot =
    let adversary =
      Vv_sim.Adversary.of_script ~quiet_trigger:true ~name:"stuffing"
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
        V.variant = Vv_core.Variant.algo1;
        speaker = 0;
        subject = 1;
        ballot = [ o (List.nth [ 0; 0; 0; 1; 1; 2; 0 ] id) ];
      }
    in
    (V.E.run_exn cfg ~inputs ~adversary ()).V.E.outputs
  in
  let once = run [ o 1 ] and thrice = run [ o 1; o 1; o 1 ] in
  check_bool "same outputs" true (once = thrice);
  check_bool "runner-up never decided" true
    (Array.for_all (fun out -> out <> Some (o 1)) thrice)

(* --- Quittable consensus --- *)

let test_quittable_decides_above_bound () =
  let honest = List.map o [ 0; 0; 0; 0; 0; 0; 1 ] in
  let r = Vv_core.Quittable.run ~t:1 ~f:1 honest in
  check_bool "terminates" true r.Vv_core.Quittable.termination;
  check_bool "agreement" true r.Vv_core.Quittable.agreement;
  check_bool "no quit" false r.Vv_core.Quittable.quit;
  check_bool "keeps plurality meaning" true r.Vv_core.Quittable.plurality_meaning;
  List.iter
    (fun v -> check_bool "value A" true (v = Vv_core.Quittable.Value (o 0)))
    r.Vv_core.Quittable.verdicts

let test_quittable_quits_below_bound () =
  (* The Section V objection, executed: SCT would stall; quittable
     consensus terminates on Q — but a strict honest plurality existed,
     so the output carries no plurality meaning. *)
  let r = Vv_core.Quittable.run ~t:3 ~f:3 thin_inputs in
  check_bool "terminates (on Q)" true r.Vv_core.Quittable.termination;
  check_bool "agreement extends to Q" true r.Vv_core.Quittable.agreement;
  check_bool "quit" true r.Vv_core.Quittable.quit;
  check_bool "plurality meaning lost" false
    r.Vv_core.Quittable.plurality_meaning

(* --- Multi-dimensional voting --- *)

let test_multidim_decides_vectors () =
  (* 7 honest voters over 2 coordinates, both decisive. *)
  let inputs =
    List.init 7 (fun i -> [ o 0; o (if i = 6 then 2 else 1) ])
  in
  let r = Multidim.run ~t:1 ~f:1 inputs in
  check_bool "termination" true r.Multidim.termination;
  check_bool "validity" true r.Multidim.voting_validity;
  check
    (Alcotest.list (Alcotest.option opt_testable))
    "vector" [ Some (o 0); Some (o 1) ] r.Multidim.output_vector

let test_multidim_coordinate_stall_isolated () =
  (* Coordinate 0 decisive, coordinate 1 tied: with SCT only coordinate 1
     stalls, and safety holds everywhere. *)
  let inputs =
    [ [ o 0; o 0 ]; [ o 0; o 0 ]; [ o 0; o 1 ]; [ o 0; o 1 ] ]
  in
  let r = Multidim.run ~protocol:Runner.Algo2_sct ~t:1 ~f:1 inputs in
  check_bool "not all terminated" false r.Multidim.termination;
  check_bool "safety everywhere" true r.Multidim.safety_admissible;
  (match r.Multidim.output_vector with
  | [ Some v; None ] -> check opt_testable "decisive coordinate" (o 0) v
  | other ->
      Alcotest.failf "unexpected vector %a"
        Fmt.(Dump.list (Dump.option Oid.pp))
        other)

let test_multidim_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Multidim.run: ragged preference vectors")
    (fun () -> ignore (Multidim.run ~t:0 ~f:0 [ [ o 0 ]; [ o 0; o 1 ] ]));
  Alcotest.check_raises "empty" (Invalid_argument "Multidim.run: no voters")
    (fun () -> ignore (Multidim.run ~t:0 ~f:0 []))

(* --- properties --- *)

let gen_session_inputs =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" Fmt.(Dump.list int) l)
    QCheck.Gen.(list_size (int_range 4 10) (int_range 0 3))

let prop_session_never_lies =
  (* Whatever happens across revote rounds, a terminated SCT attempt always
     satisfies voting validity for that round's electorate. *)
  QCheck.Test.make ~count:40 ~name:"sessions preserve exactness"
    gen_session_inputs (fun l ->
      let inputs = List.map o l in
      let r =
        Session.run ~policy:Session.Bandwagon ~max_sessions:4 ~t:1 ~f:1 inputs
      in
      List.for_all
        (fun (a : Session.attempt) ->
          (not a.Session.outcome.Runner.termination)
          || a.Session.outcome.Runner.voting_validity_tb)
        r.Session.attempts)

let prop_adjust_preserves_size =
  QCheck.Test.make ~count:60 ~name:"adjustment preserves electorate size"
    gen_session_inputs (fun l ->
      let inputs = List.map o l in
      let rng = Vv_prelude.Rng.create 9 in
      List.length
        (Session.adjust ~tie:Vv_ballot.Tie_break.default ~rng
           Session.Abandon_third inputs)
      = List.length inputs)

let prop_multidim_matches_per_coordinate =
  QCheck.Test.make ~count:30 ~name:"multidim = per-coordinate runs"
    QCheck.(pair gen_session_inputs gen_session_inputs)
    (fun (c0, c1) ->
      QCheck.assume (List.length c0 = List.length c1);
      let inputs = List.map2 (fun a b -> [ o a; o b ]) c0 c1 in
      let r = Multidim.run ~seed:42 ~t:1 ~f:1 inputs in
      List.length r.Multidim.per_coordinate = 2)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_session_never_lies;
      prop_adjust_preserves_size;
      prop_multidim_matches_per_coordinate;
    ]

let () =
  Alcotest.run "extensions"
    [
      ( "session",
        [
          Alcotest.test_case "single round when decisive" `Quick
            test_session_single_round_when_decisive;
          Alcotest.test_case "revotes until decided (Section V-B)" `Quick
            test_session_revote_until_decided;
          Alcotest.test_case "respects max sessions" `Quick
            test_session_respects_max;
          Alcotest.test_case "abandon-third adjustment" `Quick
            test_adjust_abandon_third;
          Alcotest.test_case "custom adjustment" `Quick test_adjust_custom;
        ] );
      ( "approval",
        [
          Alcotest.test_case "plain majority of endorsements" `Quick
            test_approval_plain_majority;
          Alcotest.test_case "wide gap resists collusion" `Quick
            test_approval_collusion_cannot_flip_wide_gap;
          Alcotest.test_case "thin gap attackable" `Quick
            test_approval_thin_gap_attackable;
          Alcotest.test_case "duplicate endorsements ignored" `Quick
            test_approval_duplicate_endorsements_ignored;
          Alcotest.test_case "empty set rejected" `Quick
            test_approval_rejects_empty_set;
          Alcotest.test_case "singletons run as plurality (CFT)" `Quick
            test_approval_singletons_are_plurality;
          Alcotest.test_case "Byzantine duplicates count once" `Quick
            test_approval_byzantine_duplicates;
        ] );
      ( "quittable",
        [
          Alcotest.test_case "decides above bound" `Quick
            test_quittable_decides_above_bound;
          Alcotest.test_case "quits below bound (Section V objection)" `Quick
            test_quittable_quits_below_bound;
        ] );
      ( "multidim",
        [
          Alcotest.test_case "decides vectors" `Quick test_multidim_decides_vectors;
          Alcotest.test_case "coordinate stall isolated" `Quick
            test_multidim_coordinate_stall_isolated;
          Alcotest.test_case "validation" `Quick test_multidim_validation;
        ] );
      ("properties", qcheck_cases);
    ]
