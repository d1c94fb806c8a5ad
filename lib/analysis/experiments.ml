(* Facade over the experiment suite: every table/figure of the paper (and
   every quantitative claim we additionally exercise) keyed by experiment
   id.  Each entry is a first-class {!Vv_exec.Campaign.t}; the ids, the
   [what] lines and the emitted tables are unchanged from the legacy
   [unit -> Table.t list] registry.  DESIGN.md §4 is the index;
   EXPERIMENTS.md records paper-vs-measured for each id. *)

module Campaign = Vv_exec.Campaign

let all : Campaign.t list =
  [
    Exp_fig1.fig1a_campaign;
    Exp_fig1.fig1b_campaign;
    Exp_fig1.fig1c_campaign;
    Exp_examples.e4_campaign;
    Exp_examples.e5_campaign;
    Exp_bounds.e6_campaign;
    Exp_bounds.e7_campaign;
    Exp_baselines.e8_campaign;
    Exp_baselines.e9_campaign;
    Exp_bounds.e10_campaign;
    Exp_bounds.e11_campaign;
    Exp_radio.e12_campaign;
    Exp_probability.e13_campaign;
    Exp_extensions.e14_campaign;
    Exp_session.e15_campaign;
    Exp_serve.e18_campaign;
    Exp_replica.e19_campaign;
    Exp_validity.campaign ();
  ]

let find id = List.find_opt (fun c -> String.equal (Campaign.id c) id) all

let ids = List.map Campaign.id all
