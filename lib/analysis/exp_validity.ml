(* Experiment E21: the validity hierarchy made executable.

   Civit et al., "On the Validity of Consensus" (arXiv 2301.04920),
   treats the validity property as the parameter that decides
   solvability.  This campaign cross-validates that view against our
   executable bounds: every (implementation, fault-config) cell runs
   once per trial and the single outcome is judged against *every*
   first-class property (Vv_ballot.Property.all).  A cell/property pair
   is predicted solvable when

     f <= t  /\  the implementation's own bound holds  /\
     Property.implies (promise impl) property

   — the voting protocols promise voting validity (so everything in its
   implication cone), the exchange-based baselines promise the property
   they are named after (strong / median / interval).  The campaign
   fails, and `vvc validity` exits nonzero, iff any predicted-solvable
   pair shows a violation or a stall; unpredicted pairs are observed and
   tabulated but assert nothing, which is exactly the 2301.04920
   reading: outside the solvable region the hierarchy is silent.

   Three fault configurations probe the interesting regimes:
   - wide:      strict plurality with a gap above every bound — the
                paper's exactness regime, everything in each promise
                cone must hold;
   - tie:       honest plurality tied (A_G = B_G) — the voting bounds
                cannot hold, so only the baselines' promises remain
                predicted (and strict voting validity is vacuous);
   - overfault: f > t — nothing is predicted for anyone. *)

module Table = Vv_prelude.Table
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Oid = Vv_ballot.Option_id
module Property = Vv_ballot.Property
module Validity = Vv_ballot.Validity
module Executor = Vv_exec.Executor
module Campaign = Vv_exec.Campaign
module Config = Vv_sim.Config
module Oracle = Vv_check.Oracle

type impl =
  | Voting of Runner.protocol
  | Strong_ba
  | Median_ba
  | Interval_ba

let impls =
  [
    Voting Runner.Algo1; Voting Runner.Algo2_sct; Voting Runner.Cft;
    Strong_ba; Median_ba; Interval_ba;
  ]

let impl_label = function
  | Voting p -> Runner.protocol_label p
  | Strong_ba -> "strong-ba"
  | Median_ba -> "median-ba"
  | Interval_ba -> "interval-ba"

(* What each implementation promises — the shared first-class instances,
   not private predicates. *)
let promise = function
  | Voting _ -> Property.voting
  | Strong_ba -> Vv_baselines.Strong_consensus.property
  | Median_ba -> Vv_baselines.Median_validity.property
  | Interval_ba -> Vv_baselines.Interval_validity.property

type config = {
  label : string;
  ag : int;  (** honest plurality votes *)
  bg : int;  (** honest runner-up votes *)
  cg : int;  (** honest other votes (distinct options) *)
  t : int;  (** declared tolerance *)
  f : int;  (** actual fault count *)
}

let configs =
  [
    { label = "wide"; ag = 9; bg = 2; cg = 1; t = 2; f = 2 };
    { label = "tie"; ag = 4; bg = 4; cg = 1; t = 2; f = 2 };
    { label = "overfault"; ag = 9; bg = 2; cg = 1; t = 2; f = 3 };
  ]

let honest_inputs c = Witness.inputs ~ag:c.ag ~bg:c.bg ~cg:c.cg

let cell_n c = c.ag + c.bg + c.cg + c.f

(* The exchange-based baselines agree via Phase-King BA, whose substrate
   tolerance is n > 4t. *)
let impl_bound_holds impl c =
  match impl with
  | Voting proto ->
      Vv_core.Bounds.satisfied_for (Oracle.kind_of proto)
        ~tie:Vv_ballot.Tie_break.default ~n:(cell_n c) ~t:c.t
        (honest_inputs c)
  | Strong_ba | Median_ba | Interval_ba -> cell_n c > 4 * c.t

let predicted impl c property =
  c.f <= c.t && impl_bound_holds impl c
  && Property.implies (promise impl) property

(* --- one trial ------------------------------------------------------- *)

let max_rounds = 60

(* The colluding adversary the voting protocols are proved against; the
   crash-tolerant variant gets silent faults (collusion is outside its
   model), and the baselines face the flood-the-runner-up collusion of
   E8. *)
let run_impl impl c ~seed =
  let honest = honest_inputs c in
  match impl with
  | Voting proto ->
      let strategy =
        match proto with
        | Runner.Cft -> Strategy.Passive
        | _ -> Strategy.Collude_second
      in
      let r =
        Runner.simple ~protocol:proto ~strategy ~seed ~max_rounds ~t:c.t
          ~f:c.f honest
      in
      r.Runner.outputs
  | Strong_ba | Median_ba | Interval_ba ->
      let n = cell_n c in
      let ng = n - c.f in
      let byz = List.init c.f (fun i -> ng + i) in
      let cfg = Config.with_byzantine ~seed ~n ~t_max:c.t byz () in
      let input_arr = Array.of_list honest in
      let as_int id = Oid.to_int input_arr.(min id (ng - 1)) in
      let to_opts (s : Baseline_runner.summary) =
        List.map
          (Option.map (fun v -> Oid.of_int (max 0 v)))
          s.Baseline_runner.outputs
      in
      let s =
        match impl with
        | Strong_ba ->
            Baseline_runner.run_strong cfg ~inputs:as_int ~collude:true
        | Median_ba ->
            Baseline_runner.run_median cfg ~inputs:as_int ~collude:true
        | Interval_ba | Voting _ ->
            Baseline_runner.run_interval cfg
              ~inputs:(fun id ->
                {
                  Vv_baselines.Interval_validity.value = as_int id;
                  k = (ng + 1) / 2;
                })
              ~collude:true
      in
      to_opts s

(* --- per-cell statistics --------------------------------------------- *)

type counts = { exact : int; stalls : int; violations : int }

type stats = {
  impl : impl;
  config : config;
  per_property : (Property.t * counts) list;  (** [Property.all] order *)
}

(* Every trial of a cell has the same honest inputs, so they are
   summarised once; each run is judged by [Property.judge]. *)
let cell_stats ~trials ~seed ~index (impl, config) =
  let honest =
    Validity.summarize ~tie:Vv_ballot.Tie_break.default (honest_inputs config)
  in
  let acc =
    Array.make (List.length Property.all)
      { exact = 0; stalls = 0; violations = 0 }
  in
  for k = 0 to trials - 1 do
    let run_seed = Executor.derive_seed ~seed ((index * trials) + k) in
    let outputs = run_impl impl config ~seed:run_seed in
    List.iteri
      (fun pi property ->
        let c = acc.(pi) in
        acc.(pi) <-
          (match Property.judge property honest ~t_tol:config.t ~outputs with
          | Property.Exact -> { c with exact = c.exact + 1 }
          | Property.Stall -> { c with stalls = c.stalls + 1 }
          | Property.Violation -> { c with violations = c.violations + 1 }))
      Property.all
  done;
  {
    impl;
    config;
    per_property = List.mapi (fun pi p -> (p, acc.(pi))) Property.all;
  }

let pair_ok impl config (property, c) =
  (not (predicted impl config property))
  || (c.violations = 0 && c.stalls = 0)

let stats_ok s = List.for_all (pair_ok s.impl s.config) s.per_property

let default_trials = function Campaign.Smoke -> 2 | Campaign.Full -> 4

(* --- tables ---------------------------------------------------------- *)

let electorate_label c = Fmt.str "%d/%d/%d" c.ag c.bg c.cg

let grid_table ~profile ~trials cells =
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E21: validity hierarchy grid (profile=%s trials=%d; predicted = \
            f<=t, bound holds, promise implies property)"
           (Campaign.profile_label profile) trials)
      ~headers:
        [ "impl"; "promise"; "config"; "A/B/C"; "n"; "t"; "f"; "validity";
          "predicted"; "exact"; "stall"; "violation"; "ok" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right;
          Table.Right; Table.Right; Table.Left; Table.Left; Table.Right;
          Table.Right; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun s ->
      List.iter
        (fun ((property, c) as pair) ->
          Table.add_row tab
            [
              impl_label s.impl;
              Property.id (promise s.impl);
              s.config.label;
              electorate_label s.config;
              Table.icell (cell_n s.config);
              Table.icell s.config.t;
              Table.icell s.config.f;
              Property.id property;
              (if predicted s.impl s.config property then "solvable"
               else "outside");
              Table.icell c.exact;
              Table.icell c.stalls;
              Table.icell c.violations;
              (if pair_ok s.impl s.config pair then "yes" else "NO");
            ])
        s.per_property)
    cells;
  tab

(* The hierarchy at a glance: one row per (impl, config), one column per
   property; [*] marks predicted-solvable pairs, the letter is the worst
   observed class (E exact / s stall / V violation). *)
let matrix_table cells =
  let tab =
    Table.create
      ~title:
        "E21: solvability matrix (* = predicted solvable; E exact, s \
         stall, V VIOLATION)"
      ~headers:("impl" :: "config" :: Property.names)
      ~aligns:(Table.Left :: Table.Left :: List.map (fun _ -> Table.Left) Property.names)
      ()
  in
  List.iter
    (fun s ->
      Table.add_row tab
        (impl_label s.impl :: s.config.label
        :: List.map
             (fun (property, c) ->
               let mark =
                 if predicted s.impl s.config property then "*" else ""
               in
               let letter =
                 if c.violations > 0 then "V"
                 else if c.stalls > 0 then "s"
                 else "E"
               in
               mark ^ letter)
             s.per_property))
    cells;
  tab

let verdict_line cells =
  let bad =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun ((property, _) as pair) ->
            if pair_ok s.impl s.config pair then None
            else
              Some
                (Fmt.str "%s/%s/%s" (impl_label s.impl) s.config.label
                   (Property.id property)))
          s.per_property)
      cells
  in
  if bad = [] then
    Fmt.str
      "OK: every predicted-solvable (impl, config, validity) cell exact — \
       hierarchy matched on %d cells"
      (List.length cells)
  else
    Fmt.str "FAIL: predicted-solvable cells not exact: %s"
      (String.concat ", " bad)

(* --- campaign -------------------------------------------------------- *)

let grid _profile =
  List.concat_map (fun impl -> List.map (fun c -> (impl, c)) configs) impls

let campaign ?trials () =
  let trials_for profile =
    match trials with Some k -> k | None -> default_trials profile
  in
  Campaign.v ~id:"e21"
    ~what:
      "Validity hierarchy: every implementation x fault-config judged \
       against every first-class property (arXiv 2301.04920)"
    ~seed:0xe21
    ~cells:grid
    ~run_cell:(fun ctx cell ->
      let trials = trials_for ctx.Campaign.profile in
      if trials < 1 then
        invalid_arg "Exp_validity.campaign: trials must be >= 1";
      cell_stats ~trials ~seed:ctx.Campaign.base_seed
        ~index:ctx.Campaign.index cell)
    ~collect:(fun profile pairs ->
      let cells = List.map snd pairs in
      {
        Campaign.tables =
          [
            grid_table ~profile ~trials:(trials_for profile) cells;
            matrix_table cells;
          ];
        ok = List.for_all stats_ok cells;
        verdict = Some (verdict_line cells);
      })
    ()
