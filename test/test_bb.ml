(* Tests of the Byzantine Broadcast substrates: honest-sender validity,
   agreement under an equivocating Byzantine sender, silent senders, and
   round/tolerance accounting. *)

open Vv_sim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

module Run (Sub : Vv_bb.Bb_intf.S) = struct
  module P = Vv_bb.Protocol_of.Make (Sub)
  module E = Engine.Make (P)

  let go ~n ~t ~byz ~sender ~value ?adversary () =
    let cfg = Config.with_byzantine ~n ~t_max:t byz () in
    let inputs id =
      { Vv_bb.Protocol_of.sender;
        value = (if id = sender then Some value else None) }
    in
    let res = E.run_exn cfg ~inputs ?adversary () in
    (res, E.honest_outputs res)
end

module Run_ds = Run (Vv_bb.Dolev_strong)
module Run_pk = Run (Vv_bb.Phase_king)
module Run_eig = Run (Vv_bb.Eig)

let run_bb (choice : Vv_bb.Bb.choice) ~n ~t ~byz ~sender ~value () =
  match choice with
  | Vv_bb.Bb.Dolev_strong ->
      let res, outs = Run_ds.go ~n ~t ~byz ~sender ~value () in
      ((res.Run_ds.E.rounds_used, res.Run_ds.E.stalled), outs)
  | Vv_bb.Bb.Phase_king ->
      let res, outs = Run_pk.go ~n ~t ~byz ~sender ~value () in
      ((res.Run_pk.E.rounds_used, res.Run_pk.E.stalled), outs)
  | Vv_bb.Bb.Eig ->
      let res, outs = Run_eig.go ~n ~t ~byz ~sender ~value () in
      ((res.Run_eig.E.rounds_used, res.Run_eig.E.stalled), outs)

let all_choices =
  [ ("dolev-strong", Vv_bb.Bb.Dolev_strong); ("phase-king", Vv_bb.Bb.Phase_king); ("eig", Vv_bb.Bb.Eig) ]

(* Honest sender: every honest node outputs the sender's value. *)
let test_honest_sender () =
  List.iter
    (fun (label, choice) ->
      let _, outs = run_bb choice ~n:7 ~t:1 ~byz:[ 6 ] ~sender:0 ~value:42 () in
      List.iter
        (fun o ->
          check (Alcotest.option Alcotest.int) (label ^ " honest-sender value")
            (Some 42) o)
        outs)
    all_choices

(* No faults at all, several (n, t) sizes. *)
let test_all_honest_sizes () =
  List.iter
    (fun (label, choice) ->
      List.iter
        (fun (n, t) ->
          let _, outs = run_bb choice ~n ~t ~byz:[] ~sender:1 ~value:7 () in
          check_int (Fmt.str "%s n=%d t=%d all decide" label n t) n
            (List.length outs);
          List.iter
            (fun o ->
              check (Alcotest.option Alcotest.int) label (Some 7) o)
            outs)
        [ (4, 0); (5, 1); (9, 2) ])
    all_choices

(* Silent Byzantine sender: all honest nodes must agree (on bottom). *)
let test_silent_sender () =
  List.iter
    (fun (label, choice) ->
      let _, outs = run_bb choice ~n:7 ~t:1 ~byz:[ 0 ] ~sender:0 ~value:0 () in
      (match outs with
      | [] -> Alcotest.fail "no honest outputs"
      | first :: rest ->
          List.iter
            (fun o ->
              check (Alcotest.option Alcotest.int) (label ^ " silent agreement")
                first o)
            rest);
      List.iter
        (fun o ->
          check (Alcotest.option Alcotest.int) (label ^ " silent -> bottom")
            (Some Vv_bb.Bb_intf.bottom) o)
        outs)
    all_choices

(* Equivocating Byzantine sender under point-to-point: agreement must still
   hold among honest nodes (validity does not apply). *)
let ds_equivocator ~sender =
  Adversary.named "ds-equivocate" (fun view ->
      if view.Adversary.round <> 0 then []
      else
        List.init view.Adversary.n (fun dst ->
            let v = if dst mod 2 = 0 then 10 else 20 in
            { Adversary.src = sender; dst; msg = Vv_bb.Auth.initial ~sender v }))

let pk_equivocator ~sender =
  Adversary.named "pk-equivocate" (fun view ->
      if view.Adversary.round <> 0 then []
      else
        List.init view.Adversary.n (fun dst ->
            let v = if dst mod 2 = 0 then 10 else 20 in
            {
              Adversary.src = sender;
              dst;
              msg = Vv_bb.Phase_king.Val { phase = -1; value = v };
            }))

let eig_equivocator ~sender =
  Adversary.named "eig-equivocate" (fun view ->
      if view.Adversary.round <> 0 then []
      else
        List.init view.Adversary.n (fun dst ->
            let v = if dst mod 2 = 0 then 10 else 20 in
            { Adversary.src = sender; dst; msg = Vv_bb.Eig.Init v }))

let assert_agreement label outs =
  match outs with
  | [] -> Alcotest.fail "no honest outputs"
  | first :: rest ->
      check_bool (label ^ " all decided") true
        (List.for_all Option.is_some (first :: rest));
      List.iter
        (fun o -> check (Alcotest.option Alcotest.int) (label ^ " agreement") first o)
        rest

let test_equivocating_sender () =
  let sender = 0 in
  let _, outs =
    Run_ds.go ~n:7 ~t:2 ~byz:[ 0; 6 ] ~sender ~value:0
      ~adversary:(ds_equivocator ~sender) ()
  in
  assert_agreement "dolev-strong equivocation" outs;
  let _, outs =
    Run_pk.go ~n:9 ~t:2 ~byz:[ 0 ] ~sender ~value:0
      ~adversary:(pk_equivocator ~sender) ()
  in
  assert_agreement "phase-king equivocation" outs;
  let _, outs =
    Run_eig.go ~n:7 ~t:2 ~byz:[ 0 ] ~sender ~value:0
      ~adversary:(eig_equivocator ~sender) ()
  in
  assert_agreement "eig equivocation" outs

(* A Byzantine Phase-King speaker at n = 5, t = 1 that picks its
   recipients: value 10 to nodes 1 and 2 in the sender round, then a
   phase-1 [Val] of 10 to node 2 alone in round 3.  The honest nodes must
   still agree.  With King_ba's keep-or-follow test weakened from
   [2 * mult > n + 2t] to [2 * mult > n], node 2 keeps its plurality of 10
   while the king moves the others to bottom: outputs bottom, 10, bottom,
   bottom.  Of the 531,441 scripts of this shape (nothing, 10 or 20 to
   each honest node in rounds 0, 1 and 3), none splits the honest outputs
   and 35,910 split the weakened rule's; this is one of them. *)
let pk_split_speaker =
  let send ~phase dsts =
    List.map
      (fun dst ->
        {
          Adversary.src = 0;
          dst;
          msg = Vv_bb.Phase_king.Val { phase; value = 10 };
        })
      dsts
  in
  Adversary.named "pk-split-speaker" (fun view ->
      match view.Adversary.round with
      | 0 -> send ~phase:(-1) [ 1; 2 ]
      | 3 -> send ~phase:1 [ 2 ]
      | _ -> [])

let test_byzantine_speaker_agreement () =
  let _, outs =
    Run_pk.go ~n:5 ~t:1 ~byz:[ 0 ] ~sender:0 ~value:10
      ~adversary:pk_split_speaker ()
  in
  check_int "four honest outputs" 4 (List.length outs);
  assert_agreement "phase-king split speaker" outs

(* Dolev-Strong must run in exactly t+1 exchange rounds.  [rounds_used]
   counts executed engine rounds: round 0 (the substrate's start) plus the
   exchange rounds, so a k-exchange substrate reports k + 1. *)
let test_round_counts () =
  let (rounds, _), _ = run_bb Vv_bb.Bb.Dolev_strong ~n:5 ~t:2 ~byz:[] ~sender:0 ~value:3 () in
  check_int "ds rounds" (2 + 1 + 1) rounds;
  let (rounds, _), _ = run_bb Vv_bb.Bb.Eig ~n:7 ~t:2 ~byz:[] ~sender:0 ~value:3 () in
  check_int "eig rounds" (2 + 2 + 1) rounds;
  let (rounds, _), _ = run_bb Vv_bb.Bb.Phase_king ~n:9 ~t:2 ~byz:[] ~sender:0 ~value:3 () in
  check_int "pk rounds" ((2 * 2) + 3 + 1) rounds

(* Signature chains: forged or truncated chains must not verify. *)
let test_auth () =
  let c = Vv_bb.Auth.initial ~sender:3 99 in
  check_bool "initial valid" true (Vv_bb.Auth.valid c ~sender:3 ~len:1);
  check_bool "wrong sender" false (Vv_bb.Auth.valid c ~sender:4 ~len:1);
  check_bool "wrong len" false (Vv_bb.Auth.valid c ~sender:3 ~len:2);
  let c2 = Vv_bb.Auth.extend c ~signer:5 in
  check_bool "extended valid" true (Vv_bb.Auth.valid c2 ~sender:3 ~len:2);
  let dup = Vv_bb.Auth.extend c ~signer:3 in
  check_bool "duplicate signer invalid" false (Vv_bb.Auth.valid dup ~sender:3 ~len:2)

(* Crash-faulty sender: it may reach only a subset in its last broadcast;
   agreement among honest nodes must still hold for every substrate. *)
let test_crash_sender_agreement () =
  let run_crash (choice : Vv_bb.Bb.choice) label =
    let (module Sub) = Vv_bb.Bb.sub choice in
    let module P = Vv_bb.Protocol_of.Make (Sub) in
    let module E = Engine.Make (P) in
    let faults = Array.make 7 Fault.Honest in
    faults.(0) <- Fault.Crash { at_round = 0; deliver_to = [ 1; 2; 3 ] };
    let cfg = Config.make ~faults ~n:7 ~t_max:2 () in
    let inputs id =
      { Vv_bb.Protocol_of.sender = 0;
        value = (if id = 0 then Some 5 else None) }
    in
    let res = E.run_exn cfg ~inputs () in
    assert_agreement label (E.honest_outputs res)
  in
  run_crash Vv_bb.Bb.Dolev_strong "ds crash sender";
  run_crash Vv_bb.Bb.Eig "eig crash sender";
  run_crash Vv_bb.Bb.Phase_king "pk crash sender"

(* Crash-faulty relay: an honest-until-crash relay dies mid-protocol; the
   sender is honest so validity must hold. *)
let test_crash_relay_validity () =
  let run_crash (choice : Vv_bb.Bb.choice) label =
    let (module Sub) = Vv_bb.Bb.sub choice in
    let module P = Vv_bb.Protocol_of.Make (Sub) in
    let module E = Engine.Make (P) in
    let faults = Array.make 7 Fault.Honest in
    faults.(3) <- Fault.Crash { at_round = 1; deliver_to = [ 0; 5 ] };
    let cfg = Config.make ~faults ~n:7 ~t_max:2 () in
    let inputs id =
      { Vv_bb.Protocol_of.sender = 0;
        value = (if id = 0 then Some 9 else None) }
    in
    let res = E.run_exn cfg ~inputs () in
    List.iter
      (fun o ->
        check (Alcotest.option Alcotest.int) (label ^ " validity") (Some 9) o)
      (E.honest_outputs res)
  in
  run_crash Vv_bb.Bb.Dolev_strong "ds crash relay";
  run_crash Vv_bb.Bb.Eig "eig crash relay";
  run_crash Vv_bb.Bb.Phase_king "pk crash relay"

(* Delta batching: the lock-step substrates must also work under a fixed
   delay of 2 and 3 rounds (Protocol_of batches local rounds by delta). *)
let test_delta_batching () =
  List.iter
    (fun delta ->
      List.iter
        (fun (label, choice) ->
          let (module Sub) = Vv_bb.Bb.sub choice in
          let module P = Vv_bb.Protocol_of.Make (Sub) in
          let module E = Engine.Make (P) in
          let cfg =
            Config.make ~delay:(Delay.Uniform { lo = delta; hi = delta }) ~n:7
              ~t_max:1 ()
          in
          let inputs id =
            { Vv_bb.Protocol_of.sender = 2;
              value = (if id = 2 then Some 4 else None) }
          in
          let res = E.run_exn cfg ~inputs () in
          List.iter
            (fun o ->
              check (Alcotest.option Alcotest.int)
                (Fmt.str "%s delta=%d" label delta)
                (Some 4) o)
            (E.honest_outputs res);
          check_int
            (Fmt.str "%s delta=%d rounds" label delta)
            ((Sub.rounds ~n:7 ~t:1 * delta) + 1)
            res.E.rounds_used)
        all_choices)
    [ 2; 3 ]

(* Uniform delays within the declared bound also work via batching. *)
let test_uniform_delay_batching () =
  let module P = Vv_bb.Protocol_of.Make (Vv_bb.Dolev_strong) in
  let module E = Engine.Make (P) in
  let cfg =
    Config.make ~delay:(Delay.Uniform { lo = 1; hi = 3 }) ~n:6 ~t_max:2 ()
  in
  let inputs id =
    { Vv_bb.Protocol_of.sender = 0; value = (if id = 0 then Some 8 else None) }
  in
  let res = E.run_exn cfg ~inputs () in
  List.iter
    (fun o ->
      check (Alcotest.option Alcotest.int) "uniform batching" (Some 8) o)
    (E.honest_outputs res)

(* min_n consistency with each substrate's documented assumption. *)
let test_min_n () =
  check_int "ds min" 3 (Vv_bb.Bb.min_n Vv_bb.Bb.Dolev_strong ~t:1);
  check_int "eig min" 7 (Vv_bb.Bb.min_n Vv_bb.Bb.Eig ~t:2);
  check_int "pk min" 9 (Vv_bb.Bb.min_n Vv_bb.Bb.Phase_king ~t:2)

(* Agreement of the hot-path monomorphic comparators with the polymorphic
   structural versions they replaced: the engine's local-broadcast grouping
   and the substrates' dedup logic must order/equate messages exactly as
   generic compare did, or goldens drift. *)

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

let gen_eig_msg =
  QCheck.Gen.(
    let id = int_range 0 6 in
    let value = int_range (-1) 5 in
    oneof
      [
        map (fun v -> Vv_bb.Eig.Init v) value;
        map2
          (fun path value -> Vv_bb.Eig.Report { path; value })
          (list_size (int_range 0 3) id)
          value;
      ])

let arb_eig_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      let p m =
        match m with
        | Vv_bb.Eig.Init v -> Fmt.str "Init %d" v
        | Vv_bb.Eig.Report { path; value } ->
            Fmt.str "Report {path=%a; value=%d}" Fmt.(Dump.list int) path value
      in
      Fmt.str "(%s, %s)" (p a) (p b))
    QCheck.Gen.(pair gen_eig_msg gen_eig_msg)

let prop_eig_compare_agrees =
  QCheck.Test.make ~name:"Eig.compare_msg agrees with polymorphic compare"
    arb_eig_pair (fun (a, b) ->
      sign (Vv_bb.Eig.compare_msg a b) = sign (Stdlib.compare a b))

let prop_eig_equal_agrees =
  QCheck.Test.make ~name:"Eig.equal_msg agrees with structural equality"
    arb_eig_pair (fun (a, b) ->
      Vv_bb.Eig.equal_msg a b = (a = b)
      && Vv_bb.Eig.equal_msg a b = (Vv_bb.Eig.compare_msg a b = 0))

let gen_pk_msg =
  QCheck.Gen.(
    let phase = int_range (-1) 3 and value = int_range (-1) 5 in
    oneof
      [
        map2 (fun phase value -> Vv_bb.Phase_king.Val { phase; value }) phase
          value;
        map2 (fun phase value -> Vv_bb.Phase_king.King { phase; value }) phase
          value;
      ])

let prop_pk_equal_agrees =
  QCheck.Test.make ~name:"Phase_king.equal_msg agrees with structural equality"
    (QCheck.make QCheck.Gen.(pair gen_pk_msg gen_pk_msg))
    (fun (a, b) -> Vv_bb.Phase_king.equal_msg a b = (a = b))

let gen_kb_msg =
  QCheck.Gen.(
    let phase = int_range (-1) 3 and value = int_range (-1) 5 in
    oneof
      [
        map2 (fun phase value -> Vv_bb.King_ba.Val { phase; value }) phase value;
        map2 (fun phase value -> Vv_bb.King_ba.King { phase; value }) phase
          value;
      ])

let prop_kb_equal_agrees =
  QCheck.Test.make ~name:"King_ba.equal_msg agrees with structural equality"
    (QCheck.make QCheck.Gen.(pair gen_kb_msg gen_kb_msg))
    (fun (a, b) -> Vv_bb.King_ba.equal_msg a b = (a = b))

(* Signature-chain invariants under the incremental digest: a chain built
   by initial+extend over distinct non-sender relays validates at exactly
   its length, rejects every other claimed length and sender, and
   [mem_signer] agrees with membership in [signers]. *)
let gen_chain_shape =
  QCheck.Gen.(
    pair (int_range 0 6)
      (pair (int_range 0 9) (list_size (int_range 0 5) (int_range 0 6))))

let build_chain ~sender ~value relays =
  let distinct =
    List.fold_left
      (fun acc r -> if r = sender || List.mem r acc then acc else acc @ [ r ])
      [] relays
  in
  ( List.fold_left
      (fun c signer -> Vv_bb.Auth.extend c ~signer)
      (Vv_bb.Auth.initial ~sender value)
      distinct,
    1 + List.length distinct )

let prop_auth_chain_valid =
  QCheck.Test.make ~name:"auth chains validate at their exact length"
    (QCheck.make gen_chain_shape)
    (fun (sender, (value, relays)) ->
      let chain, len = build_chain ~sender ~value relays in
      Vv_bb.Auth.valid chain ~sender ~len
      && (not (Vv_bb.Auth.valid chain ~sender ~len:(len + 1)))
      && (not (Vv_bb.Auth.valid chain ~sender ~len:(len - 1)))
      && not (Vv_bb.Auth.valid chain ~sender:(sender + 1) ~len))

let prop_auth_duplicate_signer =
  QCheck.Test.make ~name:"re-signing by an existing signer invalidates"
    (QCheck.make gen_chain_shape)
    (fun (sender, (value, relays)) ->
      let chain, len = build_chain ~sender ~value relays in
      let dup = Vv_bb.Auth.extend chain ~signer:sender in
      not (Vv_bb.Auth.valid dup ~sender ~len:(len + 1)))

let prop_auth_mem_signer =
  QCheck.Test.make ~name:"mem_signer agrees with the signer list"
    (QCheck.make QCheck.Gen.(pair gen_chain_shape (int_range 0 8)))
    (fun ((sender, (value, relays)), probe) ->
      let chain, _ = build_chain ~sender ~value relays in
      Vv_bb.Auth.mem_signer chain probe
      = List.mem probe (Vv_bb.Auth.signers chain))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eig_compare_agrees;
      prop_eig_equal_agrees;
      prop_pk_equal_agrees;
      prop_kb_equal_agrees;
      prop_auth_chain_valid;
      prop_auth_duplicate_signer;
      prop_auth_mem_signer;
    ]

let () =
  Alcotest.run "bb"
    [
      ( "broadcast",
        [
          Alcotest.test_case "honest sender delivers value" `Quick test_honest_sender;
          Alcotest.test_case "all-honest across sizes" `Quick test_all_honest_sizes;
          Alcotest.test_case "silent Byzantine sender agrees on bottom" `Quick
            test_silent_sender;
          Alcotest.test_case "equivocating sender keeps agreement" `Quick
            test_equivocating_sender;
          Alcotest.test_case "round counts" `Quick test_round_counts;
          Alcotest.test_case "crash sender keeps agreement" `Quick
            test_crash_sender_agreement;
          Alcotest.test_case "crash relay keeps validity" `Quick
            test_crash_relay_validity;
          Alcotest.test_case "delta batching (fixed delays)" `Quick
            test_delta_batching;
          Alcotest.test_case "delta batching (uniform delays)" `Quick
            test_uniform_delay_batching;
          Alcotest.test_case "Byzantine speaker picking recipients agrees"
            `Quick test_byzantine_speaker_agreement;
        ] );
      ( "auth",
        [
          Alcotest.test_case "signature chain validity" `Quick test_auth;
          Alcotest.test_case "substrate tolerance" `Quick test_min_n;
        ] );
      ("comparator-agreement", qcheck_cases);
    ]
