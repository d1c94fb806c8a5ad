(* Experiment E17: resilience campaigns on the chaos network substrate.

   The grid is drop rate x (partition width, recovery lag) x protocol
   variant; duplication and jitter ride along scaled to the drop axis
   (duplicate = drop/2, jitter = 1 whenever drop > 0) so every substrate
   axis is exercised without adding grid dimensions.  Each cell runs
   [trials] Monte-Carlo instances under derived seeds; the network seed
   is the instance seed, so both the protocol randomness and the fault
   pattern vary per trial while the whole campaign replays bit-for-bit
   from the campaign seed.

   Each run is judged by Property.judge under voting validity:
     Violation  a decided value breaks safety-guaranteed admissibility
                (Definition V.1) or agreement — never admissible for the
                safety-guaranteed variant, whatever the network does;
     Stall      some honest node never decides (admissible degradation);
     Exact      terminated with the true plurality everywhere.

   The electorate is the A=9/B=2/C=1 gap-7 witness with t = f = 2: on
   faithful links every variant is Exact (gap > 2t), so any degradation
   observed on the grid is attributable to the injected faults. *)

module Table = Vv_prelude.Table
module Runner = Vv_core.Runner
module Executor = Vv_exec.Executor
module Campaign = Vv_exec.Campaign
module Network = Vv_sim.Network
module Retransmit = Vv_sim.Retransmit
module Config = Vv_sim.Config
module Trace = Vv_sim.Trace
module Na_voting = Vv_bb.Na_voting
module Property = Vv_ballot.Property

type profile = Campaign.profile = Smoke | Full

let profile_label = Campaign.profile_label

type scenario = { width : int; heal : int }

(* The grid's protocol axis: the synchronous voting pipeline variants,
   plus the network-agnostic broadcast protocol of E20 run through the
   very same substrate faults. *)
type variant = Std of Runner.protocol | Na

let variant_label = function
  | Std p -> Runner.protocol_label p
  | Na -> "na-voting"

type cell = {
  variant : variant;
  drop : float;
  scenario : scenario;
  exact : int;
  stalls : int;
  violations : int;
  rounds_avg : float;
  dropped_avg : float;
  retrans_avg : float;
}

let cell_class c =
  if c.violations > 0 then Property.Violation
  else if c.stalls > 0 then Property.Stall
  else Property.Exact

type result = {
  profile : profile;
  retransmit : bool;
  trials : int;
  cells : cell list;
  ok : bool;
}

let protocols =
  [
    Runner.Algo1;
    Runner.Algo2_sct;
    Runner.Algo3_incremental;
    Runner.Algo4_local;
    Runner.Cft;
  ]

let variants = List.map (fun p -> Std p) protocols @ [ Na ]

let drops = function
  | Smoke -> [ 0.0; 0.2; 0.4 ]
  | Full -> [ 0.0; 0.1; 0.2; 0.3; 0.45 ]

let scenarios = function
  | Smoke -> [ { width = 0; heal = 0 }; { width = 1; heal = 3 };
               { width = 2; heal = 6 } ]
  | Full ->
      [ { width = 0; heal = 0 }; { width = 1; heal = 4 };
        { width = 2; heal = 8 }; { width = 3; heal = 12 } ]

let default_trials = function Smoke -> 3 | Full -> 5

(* The partition opens after the first broadcast exchanges are in flight
   and heals [heal] rounds later. *)
let partition_start = 2

let scenario_label s =
  if s.width = 0 || s.heal = 0 then "-"
  else
    Fmt.str "w=%d [%d,%d)" s.width partition_start (partition_start + s.heal)

(* Gap-7 electorate (A=9, B=2, C=1): Exact for every variant on faithful
   links with t = f = 2. *)
let honest_inputs = Witness.inputs ~ag:9 ~bg:2 ~cg:1
let t_tol = 2
let f_actual = 2
let max_rounds = 60

let network_of ~drop ~scenario ~seed =
  let partitions =
    if scenario.width = 0 || scenario.heal = 0 then []
    else
      [
        {
          Network.window =
            {
              Network.from_round = partition_start;
              until_round = partition_start + scenario.heal;
            };
          isolated = List.init scenario.width Fun.id;
        };
      ]
  in
  Network.make ~drop ~duplicate:(drop /. 2.)
    ~jitter:(if drop > 0.0 then 1 else 0)
    ~partitions ~seed ()

(* --- the network-agnostic variant ------------------------------------ *)

(* Na_voting's timeout multiple; covers the Uniform {lo=1; hi=2} engine
   delay the whole grid runs under. *)
let na_delta = 2

(* Same electorate as the sync variants: A=9/B=2/C=1, f = t = 2.  Option
   0 is the strict-plurality winner every honest node must decide. *)
let na_input id =
  if id < 9 then 0 else if id < 11 then 1 else if id < 12 then 2 else 0

(* One run under the E20 forger at this grid's delta.  Two Byzantine
   nodes cannot complete a (t_s + 1) = 3 Fin quorum on their own, so any
   decision for option 1 needs honest help — which the substrate can only
   withhold, never fabricate. *)
let na_trial ~retransmit ~network ~seed =
  let module P = Na_voting.Make (struct
    let t_s = t_tol
    let t_a = t_tol
    let sync_delta = na_delta
  end) in
  let module E = Vv_sim.Engine.Make (P) in
  let n = 12 + f_actual in
  let byz = List.init f_actual (fun i -> n - f_actual + i) in
  let cfg =
    Config.with_byzantine
      ~delay:(Vv_sim.Delay.Uniform { lo = 1; hi = 2 })
      ~network ?retransmit ~max_rounds ~seed ~n ~t_max:t_tol byz ()
  in
  let res =
    E.run_exn cfg ~inputs:na_input
      ~adversary:(Exp_gst.adversary ~delta:na_delta) ()
  in
  ( Exp_gst.judge_na cfg ~inputs:na_input ~t_tol res.E.outputs,
    res.E.rounds_used,
    res.E.trace.Trace.dropped_msgs,
    res.E.trace.Trace.retrans_msgs )

let grid profile =
  List.concat_map
    (fun variant ->
      List.concat_map
        (fun drop ->
          List.map (fun scenario -> (variant, drop, scenario))
            (scenarios profile))
        (drops profile))
    variants

(* One grid cell's statistics.  Every trial seed is a pure function of
   (campaign seed, cell index, trial index) — the same flat indexing the
   pre-campaign executor used — so the whole campaign replays bit-for-bit
   from the campaign seed at every [jobs] value. *)
let cell_stats ~trials ~retransmit ~seed ~index (variant, drop, scenario) =
  let retransmit_policy = if retransmit then Some Retransmit.default else None in
  let exact = ref 0 and stalls = ref 0 and violations = ref 0 in
  let rounds = ref 0 and dropped = ref 0 and retrans = ref 0 in
  for k = 0 to trials - 1 do
    let run_seed = Executor.derive_seed ~seed ((index * trials) + k) in
    let network = network_of ~drop ~scenario ~seed:run_seed in
    let cls, r, d, rt =
      match variant with
      | Na -> na_trial ~retransmit:retransmit_policy ~network ~seed:run_seed
      | Std protocol -> (
          let spec =
            Runner.simple_spec ~protocol
              ~delay:(Vv_sim.Delay.Uniform { lo = 1; hi = 2 })
              ~network ?retransmit:retransmit_policy ~seed:run_seed ~max_rounds
              ~t:t_tol ~f:f_actual honest_inputs
          in
          match Runner.run_checked spec with
          | Ok o ->
              ( Property.judge Property.voting o.Runner.honest ~t_tol
                  ~outputs:o.Runner.outputs,
                o.Runner.rounds,
                o.Runner.trace.Vv_sim.Trace.dropped_msgs,
                o.Runner.trace.Vv_sim.Trace.retrans_msgs )
          | Error (`Invalid_adversary _) ->
              (* An adversary invalidated by the fault plan is a harness
                 bug, not a protocol property — surface it loudly. *)
              (Property.Violation, 0, 0, 0))
    in
    (match cls with
    | Property.Exact -> incr exact
    | Property.Stall -> incr stalls
    | Property.Violation -> incr violations);
    rounds := !rounds + r;
    dropped := !dropped + d;
    retrans := !retrans + rt
  done;
  let avg x = float_of_int x /. float_of_int trials in
  {
    variant;
    drop;
    scenario;
    exact = !exact;
    stalls = !stalls;
    violations = !violations;
    rounds_avg = avg !rounds;
    dropped_avg = avg !dropped;
    retrans_avg = avg !retrans;
  }

(* The safety contract of the grid: the safety-guaranteed sync variant
   and the network-agnostic protocol must never decide wrongly, whatever
   the substrate does — a single Violation trial on either fails the
   campaign (and `vvc chaos` exits nonzero). *)
let result_ok cells =
  List.for_all
    (fun c ->
      match c.variant with
      | Std Runner.Algo2_sct | Na -> c.violations = 0
      | Std _ -> true)
    cells

(* --- tables --- *)

let grid_table r =
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E17: chaos degradation grid (profile=%s trials=%d retransmit=%b; \
            dup=drop/2, jitter=1 when drop>0)"
           (profile_label r.profile) r.trials r.retransmit)
      ~headers:
        [ "protocol"; "drop"; "partition"; "class"; "exact"; "stall";
          "violation"; "avg rounds"; "avg dropped"; "avg retrans" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Left; Table.Left; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun c ->
      Table.add_row tab
        [
          variant_label c.variant;
          Table.fcell ~decimals:2 c.drop;
          scenario_label c.scenario;
          Property.verdict_label (cell_class c);
          Table.icell c.exact;
          Table.icell c.stalls;
          Table.icell c.violations;
          Table.fcell ~decimals:1 c.rounds_avg;
          Table.fcell ~decimals:1 c.dropped_avg;
          Table.fcell ~decimals:1 c.retrans_avg;
        ])
    r.cells;
  tab

(* The envelope: the largest swept drop rate below which the
   partition-free column stays all-Exact, per protocol. *)
let envelope_table r =
  let tab =
    Table.create
      ~title:"E17: degradation envelope per protocol"
      ~headers:
        [ "protocol"; "cells"; "exact"; "stall"; "violation";
          "clean drop <="; "safety violations" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun variant ->
      let cs = List.filter (fun c -> c.variant = variant) r.cells in
      let count f = List.length (List.filter f cs) in
      let clean_envelope =
        (* Largest prefix of the ascending drop axis whose
           partition-free cell is Exact. *)
        List.fold_left
          (fun (continue, best) d ->
            if not continue then (false, best)
            else
              let ok =
                List.exists
                  (fun c ->
                    c.drop = d && c.scenario.width = 0
                    && cell_class c = Property.Exact)
                  cs
              in
              if ok then (true, Some d) else (false, best))
          (true, None) (drops r.profile)
        |> snd
      in
      let violations =
        List.fold_left (fun acc c -> acc + c.violations) 0 cs
      in
      Table.add_row tab
        [
          variant_label variant;
          Table.icell (List.length cs);
          Table.icell (count (fun c -> cell_class c = Property.Exact));
          Table.icell (count (fun c -> cell_class c = Property.Stall));
          Table.icell (count (fun c -> cell_class c = Property.Violation));
          (match clean_envelope with
          | Some d -> Table.fcell ~decimals:2 d
          | None -> "-");
          Table.icell violations;
        ])
    variants;
  tab

let tables r = [ grid_table r; envelope_table r ]

let campaign ?(retransmit = false) ?trials () =
  let trials_for profile =
    match trials with Some k -> k | None -> default_trials profile
  in
  Campaign.v ~id:"chaos"
    ~what:"Chaos resilience: degradation grid under lossy/partitioned links"
    ~seed:0xc4a05
    ~cells:grid
    ~run_cell:(fun ctx cell ->
      let trials = trials_for ctx.Campaign.profile in
      if trials < 1 then invalid_arg "Exp_chaos.campaign: trials must be >= 1";
      cell_stats ~trials ~retransmit ~seed:ctx.Campaign.base_seed
        ~index:ctx.Campaign.index cell)
    ~collect:(fun profile pairs ->
      let cells = List.map snd pairs in
      let r =
        {
          profile;
          retransmit;
          trials = trials_for profile;
          cells;
          ok = result_ok cells;
        }
      in
      { Campaign.tables = tables r; ok = r.ok; verdict = None })
    ()
