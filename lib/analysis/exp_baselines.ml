(* Experiments E8-E9: comparison against the approximate-validity baselines
   and protocol cost accounting.

   E8a: election workload — how often does each protocol deliver the exact
        plurality of honest inputs under collusion? (the paper's Section I
        claim: approximate validities cannot, voting validity can whenever
        the dispersion bound holds).
   E8b: sensor workload with Byzantine outliers — the converse: median /
        approximate agreement shine on continuous values where plurality is
        meaningless (all honest values distinct, Algorithm 1 stalls).
   E9:  rounds and messages per protocol and substrate. *)

module Table = Vv_prelude.Table
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Oid = Vv_ballot.Option_id
module Rng = Vv_prelude.Rng
module Validity = Vv_ballot.Validity
module Property = Vv_ballot.Property
module Campaign = Vv_exec.Campaign

type rates = {
  mutable exact : int;
  mutable agree : int;
  mutable term : int;
  trials : int;
}

let new_rates trials = { exact = 0; agree = 0; term = 0; trials }

let rate n r = float_of_int n /. float_of_int r.trials

(* Judge a run through the shared predicates: [Validity] for liveness and
   agreement, [Property.judge] under voting validity for exactness (with
   termination, a non-empty decided list all equal to the plurality is
   exactly the old first-decided-equals-target check). *)
let record r ~honest ~outputs =
  let term = Validity.termination ~outputs in
  let agree = Validity.agreement ~outputs in
  let exact =
    Property.judge Property.voting honest ~t_tol:0 ~outputs = Property.Exact
  in
  if term then r.term <- r.term + 1;
  if agree then r.agree <- r.agree + 1;
  if exact then r.exact <- r.exact + 1

let e8_election ~trials ~seed =
  let ng = 10 and t = 2 in
  let rng = Rng.create seed in
  let dist = Vv_dist.Profiles.distribution ~ng Vv_dist.Profiles.d2 in
  let n = ng + t in
  let byz = List.init t (fun i -> ng + i) in
  let algo1 = new_rates trials
  and sct = new_rates trials
  and strong = new_rates trials
  and median = new_rates trials
  and interval = new_rates trials in
  for _ = 1 to trials do
    let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
    let summary = Validity.summarize ~tie:Vv_ballot.Tie_break.default honest in
    let seed = Rng.bits rng in
    (* Voting-validity protocols. *)
    let r1 =
      Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
        ~seed ~t ~f:t honest
    in
    record algo1 ~honest:summary ~outputs:r1.Runner.outputs;
    let r2 =
      Runner.simple ~protocol:Runner.Algo2_sct
        ~strategy:Strategy.Collude_second ~seed ~t ~f:t honest
    in
    record sct ~honest:summary ~outputs:r2.Runner.outputs;
    (* Baselines: same workload as raw integers. *)
    let cfg = Vv_sim.Config.with_byzantine ~seed ~n ~t_max:t byz () in
    let input_arr = Array.of_list honest in
    let as_int id = Oid.to_int input_arr.(min id (ng - 1)) in
    let to_opts (s : Baseline_runner.summary) =
      List.map
        (Option.map (fun v -> Oid.of_int (max 0 v)))
        s.Baseline_runner.outputs
    in
    let s = Baseline_runner.run_strong cfg ~inputs:as_int ~collude:true in
    record strong ~honest:summary ~outputs:(to_opts s);
    let m = Baseline_runner.run_median cfg ~inputs:as_int ~collude:true in
    record median ~honest:summary ~outputs:(to_opts m);
    let iv =
      Baseline_runner.run_interval cfg
        ~inputs:(fun id ->
          { Vv_baselines.Interval_validity.value = as_int id; k = (ng + 1) / 2 })
        ~collude:true
    in
    record interval ~honest:summary ~outputs:(to_opts iv)
  done;
  let t_out =
    Table.create
      ~title:
        (Fmt.str
           "E8a: election workload (D2, N_G=%d, t=f=%d, colluding adversary) \
            - exact-plurality rate"
           ng t)
      ~headers:[ "protocol"; "exact"; "agreement"; "termination" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun (name, r) ->
      Table.add_row t_out
        [
          name;
          Table.fcell ~decimals:3 (rate r.exact r);
          Table.fcell ~decimals:3 (rate r.agree r);
          Table.fcell ~decimals:3 (rate r.term r);
        ])
    [
      ("algo1 (voting validity)", algo1);
      ("algo2 (SCT)", sct);
      ("strong-consensus", strong);
      ("median-validity", median);
      ("interval-validity", interval);
    ];
  t_out

let e8_sensor ~trials ~seed =
  let ng = 9 and t = 2 in
  let rng = Rng.create seed in
  let n = ng + t in
  let byz = List.init t (fun i -> ng + i) in
  let abs_err = ref 0.0 and med_stall = ref 0 in
  let approx_spread = ref 0.0 in
  let algo1_stalls = ref 0 and algo1_err = ref 0.0 and algo1_decides = ref 0 in
  let sct_stalls = ref 0 in
  for _ = 1 to trials do
    (* Distinct readings around 100: a plurality does not exist. *)
    let base = Array.init ng (fun i -> 90 + i + Rng.int rng 3) in
    let values = Array.to_list base in
    let sorted = List.sort compare values in
    let true_median = List.nth sorted (ng / 2) in
    let seed = Rng.bits rng in
    let cfg = Vv_sim.Config.with_byzantine ~seed ~n ~t_max:t byz () in
    let m =
      Baseline_runner.run_median cfg
        ~inputs:(fun id -> base.(min id (ng - 1)))
        ~collude:true
    in
    (match List.filter_map Fun.id m.Baseline_runner.outputs with
    | [] -> incr med_stall
    | out :: _ ->
        abs_err := !abs_err +. abs_float (float_of_int (out - true_median)));
    let outs, _, _ =
      Baseline_runner.run_approx cfg
        ~inputs:(fun id ->
          { Vv_baselines.Approx.value = float_of_int base.(min id (ng - 1));
            rounds = 8 })
        ~outlier:(Some 1e6)
    in
    approx_spread := !approx_spread +. Vv_baselines.Approx.spread outs;
    let r1 =
      Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
        ~seed ~t ~f:t
        (List.map Oid.of_int values)
    in
    if not r1.Runner.termination then incr algo1_stalls
    else begin
      (match List.filter_map Fun.id r1.Runner.outputs with
      | out :: _ ->
          incr algo1_decides;
          algo1_err :=
            !algo1_err
            +. abs_float (float_of_int (Oid.to_int out - true_median))
      | [] -> ())
    end;
    let r2 =
      Runner.simple ~protocol:Runner.Algo2_sct ~strategy:Strategy.Collude_second
        ~seed ~t ~f:t
        (List.map Oid.of_int values)
    in
    if not r2.Runner.termination then incr sct_stalls
  done;
  let tt =
    Table.create
      ~title:
        (Fmt.str
           "E8b: sensor workload (distinct readings + Byzantine outliers, \
            N_G=%d, t=f=%d)"
           ng t)
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ]
      ()
  in
  Table.add_row tt
    [
      "median baseline: mean |output - true median|";
      Table.fcell ~decimals:2 (!abs_err /. float_of_int (max 1 (trials - !med_stall)));
    ];
  Table.add_row tt
    [
      "approximate agreement: mean honest spread (outliers trimmed)";
      Table.fcell ~decimals:4 (!approx_spread /. float_of_int trials);
    ];
  Table.add_row tt
    [
      "algo1 stall rate (no plurality exists on distinct readings)";
      Table.fcell ~decimals:2
        (float_of_int !algo1_stalls /. float_of_int trials);
    ];
  Table.add_row tt
    [
      "algo1 mean |output - true median| when the adversary forces a decision";
      Table.fcell ~decimals:2 (!algo1_err /. float_of_int (max 1 !algo1_decides));
    ];
  Table.add_row tt
    [
      "algo2 (SCT) stall rate (refuses to guess)";
      Table.fcell ~decimals:2 (float_of_int !sct_stalls /. float_of_int trials);
    ];
  tt

(* The election and sensor workloads each thread their own rng through
   every trial, so the campaign exposes them as two coarse cells rather
   than one cell per trial.  The default campaign seed reproduces the two
   legacy per-table seeds exactly; an explicit [--seed] derives a fresh
   per-cell seed for the sensor workload instead. *)
let e8_campaign =
  Campaign.v ~id:"e8"
    ~what:"Baselines: exactness on elections; median/approx on sensors"
    ~seed:0xe8
    ~cells:(fun _ -> [ `Election; `Sensor ])
    ~run_cell:(fun ctx cell ->
      let smoke = ctx.Campaign.profile = Campaign.Smoke in
      match cell with
      | `Election ->
          let trials = if smoke then 30 else 120 in
          e8_election ~trials ~seed:ctx.Campaign.base_seed
      | `Sensor ->
          let trials = if smoke then 15 else 60 in
          let seed =
            if ctx.Campaign.base_seed = 0xe8 then 0x5e45
            else ctx.Campaign.cell_seed
          in
          e8_sensor ~trials ~seed)
    ~collect:(fun _ pairs -> Campaign.tables (List.map snd pairs))
    ()

let e9_table () =
  Table.create
    ~title:"E9: protocol cost (decisive inputs A*(N_G-1),B; t=f=1)"
    ~headers:
      [ "protocol"; "substrate"; "N"; "rounds"; "honest msgs"; "byz msgs" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right ]
    ()

let e9_variants =
  [
    (Runner.Algo1, Vv_bb.Bb.Dolev_strong, "dolev-strong");
    (Runner.Algo1, Vv_bb.Bb.Eig, "eig");
    (Runner.Algo1, Vv_bb.Bb.Phase_king, "phase-king");
    (Runner.Algo2_sct, Vv_bb.Bb.Dolev_strong, "dolev-strong");
    (Runner.Algo3_incremental, Vv_bb.Bb.Dolev_strong, "dolev-strong");
    (Runner.Algo4_local, Vv_bb.Bb.Dolev_strong, "plain/local");
    (Runner.Cft, Vv_bb.Bb.Dolev_strong, "plain");
  ]

let e9_cells =
  List.concat_map
    (fun ng ->
      List.map (fun (protocol, bb, label) -> (protocol, bb, label, ng))
        e9_variants)
    [ 6; 9; 12 ]

let e9_row (protocol, bb, label, ng) =
  let t = 1 in
  let honest = Witness.inputs ~ag:(ng - 1) ~bg:1 ~cg:0 in
  let r =
    Runner.simple ~protocol ~bb ~strategy:Strategy.Collude_second ~t ~f:t honest
  in
  [
    Runner.protocol_label protocol;
    label;
    Table.icell (ng + t);
    Table.icell r.Runner.rounds;
    Table.icell r.Runner.honest_msgs;
    Table.icell r.Runner.byz_msgs;
  ]

let e9_campaign =
  Tabulate.campaign ~id:"e9"
    ~what:"Protocol cost: rounds and messages per protocol/substrate"
    [
      Tabulate.section ~table:e9_table
        ~cells:(fun _ -> e9_cells)
        ~row:(fun _ c -> Some (e9_row c));
    ]
