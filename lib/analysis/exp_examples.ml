(* Experiments E4-E5: the paper's worked examples.

   E4: the Section I / IV motivating scenario (N = 10, t = 3, honest inputs
       {0,0,0,1,1,2,3}): Algorithm 1 is driven to the wrong output by the
       colluding adversary, while the safety-guaranteed Algorithm 2 stalls
       rather than lies, and both decide correctly once the bound holds.
   E5: the Section VII-A incremental threshold example and a delay sweep
       comparing rounds-to-decision of Algorithms 1 and 3. *)

module Table = Vv_prelude.Table
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Oid = Vv_ballot.Option_id
module Campaign = Vv_exec.Campaign

let describe_outputs outputs =
  let cells =
    List.map
      (function None -> "-" | Some v -> Oid.to_string v)
      outputs
  in
  String.concat "" cells

let run_row protocol strategy ~tol ~f honest =
  let r = Runner.simple ~protocol ~strategy ~t:tol ~f honest in
  [
    Runner.protocol_label protocol;
    Fmt.str "%a" Strategy.pp strategy;
    Table.icell tol;
    Table.icell f;
    Table.bcell r.Runner.termination;
    Table.bcell r.Runner.agreement;
    Table.bcell r.Runner.voting_validity;
    Table.bcell r.Runner.safety_admissible;
    describe_outputs r.Runner.outputs;
  ]

let e4_table () =
  Table.create
    ~title:
      "E4: Section I example - honest {A,A,A,B,B,C,D}, N=10, t=3 vs N=13, \
       t=3"
    ~headers:
      [ "protocol"; "adversary"; "t"; "f"; "term"; "agree"; "validity";
        "safe"; "outputs" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Left ]
    ()

(* Below the bound (N = 10 <= 2t + 2B_G + C_G = 12): Algorithm 1 is
   fooled; SCT stalls but stays safe.  Then the same dispersion with a
   decisive plurality (gap > 2t): both succeed. *)
let e4_cells =
  let honest = Witness.section1_example in
  let decisive =
    List.map Oid.of_int [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 2; 3 ]
  in
  [
    (Runner.Algo1, honest);
    (Runner.Algo2_sct, honest);
    (Runner.Algo1, decisive);
    (Runner.Algo2_sct, decisive);
  ]

let e4_row (protocol, honest) =
  run_row protocol Strategy.Collude_second ~tol:3 ~f:3 honest

let e4_campaign =
  Tabulate.campaign ~id:"e4"
    ~what:"Section I/IV worked example: Algorithm 1 fooled, SCT safe"
    [
      Tabulate.section ~table:e4_table
        ~cells:(fun _ -> e4_cells)
        ~row:(fun _ c -> Some (e4_row c));
    ]

let e5a_table () =
  Table.create
    ~title:
      "E5a: Section VII-A example - incremental threshold firing point \
       (N=10, arrivals 0,0,1,0,0,0,2,3,0,1)"
    ~headers:[ "delta_P"; "fires after k votes"; "paper says" ]
    ~aligns:[ Table.Right; Table.Right; Table.Left ]
    ()

let e5a_row dp =
  let fires =
    Witness.incremental_firing_point ~delta_p:dp ~n:10 Witness.section7_sequence
  in
  let paper = if dp = 0 then "7 (Section VII-A)" else "-" in
  [
    Table.icell dp;
    (match fires with Some k -> Table.icell k | None -> "-");
    paper;
  ]

let mean_decision_round (r : Runner.outcome) =
  let rounds = List.filter_map Fun.id r.Runner.decision_rounds in
  match rounds with
  | [] -> None
  | l ->
      Some
        (List.fold_left ( + ) 0 l |> fun s ->
         float_of_int s /. float_of_int (List.length l))

(* E5c: adversarial scheduling.  The network (within its bound delta) may
   order deliveries to hurt the incremental threshold: votes for the
   leading option arrive last, so Inequality (14) fires as late as
   possible.  Algorithm 3 must still decide no later than Algorithm 1's
   fixed 2*delta wait — optimistic responsiveness degrades gracefully to
   the synchronous bound. *)
let e5c_delta = 4

let e5c_table () =
  Table.create
    ~title:
      (Fmt.str
         "E5c: adversarial schedule (leader votes delayed to the bound \
          delta=%d) - Algorithm 3 degrades to Algorithm 1's wait, never \
          worse"
         e5c_delta)
    ~headers:[ "protocol"; "schedule"; "term"; "valid"; "rounds" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
    ()

let e5c_cases = [ `Algo1_worst; `Algo3_starved; `Algo3_instant ]

let e5c_row case =
  let delta = e5c_delta in
  let honest = List.map Oid.of_int [ 0; 0; 0; 0; 0; 1 ] in
  let n = List.length honest + 1 in
  (* Senders preferring the leader get the full delay; everyone else is
     delivered immediately.  Sender ids 0..4 vote 0 (the leader). *)
  let schedule ~round:_ ~src ~dst:_ = if src <= 4 then delta else 1 in
  let run protocol delay =
    Runner.run
      (Runner.spec ~byzantine:[ n - 1 ] ~protocol
         ~strategy:Vv_core.Strategy.Collude_second ~delay ~n ~t:1
         (honest @ [ Oid.of_int 0 ]))
  in
  let adversarial =
    Vv_sim.Delay.Eventually_synchronous
      { gst = 0; bound = delta; schedule = Some schedule }
  in
  let label, protocol, delay, sched_label =
    match case with
    | `Algo1_worst ->
        ( "algo1", Runner.Algo1, Vv_sim.Delay.Uniform { lo = delta; hi = delta },
          "uniform worst" )
    | `Algo3_starved ->
        ("algo3", Runner.Algo3_incremental, adversarial, "leader-starved")
    | `Algo3_instant ->
        ("algo3", Runner.Algo3_incremental, Vv_sim.Delay.synchronous, "instant")
  in
  let r = run protocol delay in
  [
    label;
    sched_label;
    Table.bcell r.Runner.termination;
    Table.bcell r.Runner.voting_validity;
    Table.icell r.Runner.rounds;
  ]

let e5b_table () =
  Table.create
    ~title:
      "E5b: rounds to decision, Algorithm 1 (wait 2*delta) vs Algorithm 3 \
       (incremental) - uniform delays 1..delta"
    ~headers:
      [ "delta"; "algo1 mean decision round"; "algo3 mean decision round";
        "speedup" ]
    ()

let e5b_deltas = [ 1; 2; 3; 4; 5; 6 ]

let e5b_row ~seeds hi =
  let honest = List.map Oid.of_int [ 0; 0; 0; 0; 0; 1 ] in
  let delay = Vv_sim.Delay.Uniform { lo = 1; hi } in
  let mean_of protocol =
    let acc = ref 0.0 and cnt = ref 0 in
    for seed = 1 to seeds do
      let r =
        Runner.simple ~protocol ~strategy:Strategy.Collude_second ~delay
          ~seed:(seed * 7919) ~t:1 ~f:1 honest
      in
      match mean_decision_round r with
      | Some m ->
          acc := !acc +. m;
          incr cnt
      | None -> ()
    done;
    if !cnt = 0 then nan else !acc /. float_of_int !cnt
  in
  let m1 = mean_of Runner.Algo1 in
  let m3 = mean_of Runner.Algo3_incremental in
  [
    Table.icell hi;
    Table.fcell ~decimals:2 m1;
    Table.fcell ~decimals:2 m3;
    Table.fcell ~decimals:2 (m1 /. m3);
  ]

(* Three tables, one campaign: the firing-point rows, the delay sweep
   (one cell per delta; every trial seed is explicit, so the cells are
   independent), and the adversarial schedule. *)
let e5_campaign =
  Tabulate.campaign ~id:"e5"
    ~what:"Section VII-A incremental threshold: firing point + delay sweep"
    [
      Tabulate.section ~table:e5a_table
        ~cells:(fun _ -> [ 0; 1 ])
        ~row:(fun _ dp -> Some (e5a_row dp));
      Tabulate.section ~table:e5b_table
        ~cells:(fun _ -> e5b_deltas)
        ~row:(fun ctx hi ->
          let seeds =
            match ctx.Campaign.profile with
            | Campaign.Full -> 12
            | Campaign.Smoke -> 4
          in
          Some (e5b_row ~seeds hi));
      Tabulate.section ~table:e5c_table
        ~cells:(fun _ -> e5c_cases)
        ~row:(fun _ case -> Some (e5c_row case));
    ]
