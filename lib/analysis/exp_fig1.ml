(* Experiments E1-E3: regenerate Figure 1 of Section VI-B.

   E1 / Fig 1(a): the preference profiles D1-D4 and their initial system
                  entropy H_0.
   E2 / Fig 1(b): Pr(A_G - B_G > t) per profile and tolerance t, computed
                  three independent ways — exact enumeration of Equations
                  9-13, Monte-Carlo sampling, and *empirical runs of
                  Algorithm 1* against the worst-case colluding adversary
                  on inputs drawn from the profile.
   E3 / Fig 1(c): the system entropy H_s of achieving voting validity as a
                  function of the actual number of faults f. *)

module Table = Vv_prelude.Table
module Profiles = Vv_dist.Profiles
module Cache = Vv_dist.Cache
module Mc = Vv_dist.Montecarlo
module Rng = Vv_prelude.Rng
module Runner = Vv_core.Runner
module Campaign = Vv_exec.Campaign

let fig1a_table () =
  Table.create ~title:"Figure 1(a): preference profiles and entropy"
    ~headers:[ "profile"; "p1"; "p2"; "p3"; "p4"; "H(p)"; "H0 (xN_G)" ]
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    ()

let fig1a_row (pr : Profiles.t) =
  let ng = Profiles.default_ng in
  let cells = Array.to_list (Array.map (fun p -> Table.fcell ~decimals:2 p) pr.p) in
  [ pr.Profiles.name ] @ cells
  @ [
      Table.fcell ~decimals:4 (Vv_dist.Entropy.shannon pr.Profiles.p);
      Table.fcell ~decimals:2 (Profiles.initial_entropy ~ng pr);
    ]

let fig1a_campaign =
  Tabulate.campaign ~id:"fig1a"
    ~what:"Figure 1(a): preference profiles D1-D4 and initial entropy"
    [
      Tabulate.section ~table:fig1a_table
        ~cells:(fun _ -> Profiles.all)
        ~row:(fun _ pr -> Some (fig1a_row pr));
    ]

(* One empirical success estimate: sample honest inputs from the profile,
   run Algorithm 1 with f = t colluders on the runner-up, and count the
   runs that terminated with the exact honest plurality.  Every spec is
   drawn from the shared rng first, in index order on the calling domain,
   so the draws are the same at every [jobs] value; only the runs fan out.
   A run whose adversary the engine rejects counts as a failure. *)
let empirical_success ?jobs ~trials ~t ~rng dist =
  let specs =
    Array.init trials (fun _ ->
        let honest = Mc.sample_inputs dist rng in
        Runner.simple_spec ~protocol:Runner.Algo1
          ~strategy:Vv_core.Strategy.Collude_second ~t ~f:t
          ~seed:(Rng.bits rng) honest)
  in
  let wins =
    Vv_exec.Executor.map ?jobs ~count:trials (fun i ->
        match Runner.run_checked specs.(i) with
        | Ok o when o.Runner.termination && o.Runner.voting_validity_tb -> 1
        | Ok _ | Error (`Invalid_adversary _) -> 0)
  in
  if trials = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 wins) /. float_of_int trials

let fig1b ?jobs ?(t_max = 4) ?(mc_samples = 20_000) ?(trials = 150)
    ?(seed = 0xf1b) () =
  let rng = Rng.create seed in
  let t =
    Table.create
      ~title:
        "Figure 1(b): Pr(A_G - B_G > t) - exact vs Monte-Carlo vs protocol \
         runs"
      ~headers:
        [ "profile"; "t"; "exact"; "monte-carlo"; "+/-"; "protocol-runs" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (pr : Profiles.t) ->
      let dist = Profiles.distribution ~ng:Profiles.default_ng pr in
      for tol = 0 to t_max do
        let exact = Cache.pr_voting_validity dist ~t:tol in
        let mc, hw =
          Mc.pr_voting_validity dist ~t:tol ~samples:mc_samples ~rng
        in
        let emp = empirical_success ?jobs ~trials ~t:tol ~rng dist in
        Table.add_row t
          [
            pr.Profiles.name;
            Table.icell tol;
            Table.fcell exact;
            Table.fcell mc;
            Table.fcell hw;
            Table.fcell emp;
          ]
      done)
    Profiles.all;
  t

(* The whole fig1b table draws Monte-Carlo samples and protocol inputs
   from one rng shared across every profile and tolerance, so the
   campaign is a single cell: the grid cannot fan out without changing
   the stream, but the cell threads [ctx.jobs] into the inner protocol-run
   fan-out, which is jobs-invariant because the specs are drawn first. *)
let fig1b_campaign =
  Campaign.v ~id:"fig1b"
    ~what:"Figure 1(b): Pr(A_G - B_G > t) exact / Monte-Carlo / protocol runs"
    ~seed:0xf1b
    ~cells:(fun _ -> [ () ])
    ~run_cell:(fun ctx () ->
      match ctx.Campaign.profile with
      | Campaign.Full ->
          fig1b ~jobs:ctx.Campaign.jobs ~seed:ctx.Campaign.base_seed ()
      | Campaign.Smoke ->
          fig1b ~jobs:ctx.Campaign.jobs ~seed:ctx.Campaign.base_seed ~t_max:2
            ~mc_samples:4_000 ~trials:30 ())
    ~collect:(fun _ pairs -> Campaign.tables (List.map snd pairs))
    ()

let fig1c_f_max = 4

let fig1c_table () =
  Table.create ~title:"Figure 1(c): system entropy H_s vs actual faults f"
    ~headers:
      ([ "profile"; "H0" ]
      @ List.init (fig1c_f_max + 1) (fun f -> Fmt.str "f=%d" f))
    ~aligns:(Table.Left :: List.init (fig1c_f_max + 2) (fun _ -> Table.Right))
    ()

let fig1c_row (pr : Profiles.t) =
  let ng = Profiles.default_ng in
  let dist = Profiles.distribution ~ng pr in
  let cells =
    List.init (fig1c_f_max + 1) (fun f ->
        Table.fcell (Cache.system_entropy dist ~f))
  in
  [ pr.Profiles.name; Table.fcell ~decimals:2 (Profiles.initial_entropy ~ng pr) ]
  @ cells

let fig1c_campaign =
  Tabulate.campaign ~id:"fig1c"
    ~what:"Figure 1(c): system entropy H_s vs actual faults"
    [
      Tabulate.section ~table:fig1c_table
        ~cells:(fun _ -> Profiles.all)
        ~row:(fun _ pr -> Some (fig1c_row pr));
    ]
