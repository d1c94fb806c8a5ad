(* Experiment E12 (extension): multi-hop voting over radio topologies.

   E12a: the same electorate voting over different connected topologies —
         the flooding generalisation of Algorithm 4 stays exact wherever
         the honest subgraph is connected; latency scales with diameter
         and message cost with edges x rounds.
   E12b: the relay-poisoning limit: first-accept flooding protects only
         direct neighbours of a victim; on multi-hop topologies the fake
         copy wins beyond one hop and exactness (termination) is lost —
         never validity.  This is precisely where the connectivity bound
         of Khan-Naqvi-Vaidya [36] becomes necessary. *)

module Table = Vv_prelude.Table
module T = Vv_radio.Topology
module R = Vv_radio.Radio_runner
module Oid = Vv_ballot.Option_id
module Campaign = Vv_exec.Campaign

(* 9 nodes, one Byzantine (node 8); honest A=6 vs B=2. *)
let inputs9 =
  List.map Oid.of_int [ 0; 0; 0; 1; 0; 1; 0; 0; 0 ]

let topologies =
  [
    ("complete-9", T.complete 9);
    ("ring-9 (k=1)", T.ring ~k:1 9);
    ("ring-9 (k=2)", T.ring ~k:2 9);
    ("grid-3x3", T.grid ~w:3 ~h:3);
    ("geometric-9 (r=.5)", T.random_geometric ~n:9 ~radius:0.5 ~seed:12);
  ]

let e12a_table () =
  Table.create
    ~title:
      "E12a: multi-hop radio voting across topologies (N=9, t=f=1, \
       colluding origin)"
    ~headers:
      [ "topology"; "diameter"; "min degree"; "term"; "valid"; "rounds";
        "messages" ]
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    ()

let e12a_cells = List.filter (fun (_, topo) -> T.connected topo) topologies

let e12a_row (label, topo) =
  let r =
    R.run ~strategy:R.Originate_second ~topology:topo ~t:1 ~byzantine:[ 8 ]
      inputs9
  in
  [
    label;
    Table.icell (T.diameter topo);
    Table.icell (T.min_degree topo);
    Table.bcell r.R.termination;
    Table.bcell r.R.voting_validity;
    Table.icell r.R.rounds;
    Table.icell r.R.messages;
  ]

let e12_topologies () =
  let tab = e12a_table () in
  List.iter (fun c -> Table.add_row tab (e12a_row c)) e12a_cells;
  tab

let e12b_table () =
  Table.create
    ~title:
      "E12b: relay poisoning - first-accept flooding protects one hop \
       only (victim 0, fake on the runner-up)"
    ~headers:[ "topology"; "attack"; "term"; "valid"; "exact" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
    ()

let e12b_cells =
  [
    ("complete-8", `Complete, `Collude, "collude");
    ("complete-8", `Complete, `Poison, "poison origin 0");
    ("ring-8", `Ring, `Collude, "collude");
    ("ring-8", `Ring, `Poison, "poison origin 0");
  ]

let e12b_row (label, topo, strat, attack) =
  (* Thin-but-safe margin: honest A=5, B=2 on 8 nodes, Byzantine node 5. *)
  let inputs = List.map Oid.of_int [ 0; 0; 0; 0; 1; 1; 1; 0 ] in
  let topology =
    match topo with `Complete -> T.complete 8 | `Ring -> T.ring ~k:1 8
  in
  let strategy =
    match strat with
    | `Collude -> R.Originate_second
    | `Poison -> R.Poison_origin (0, 1)
  in
  let r = R.run ~strategy ~topology ~t:1 ~byzantine:[ 5 ] inputs in
  [
    label;
    attack;
    Table.bcell r.R.termination;
    Table.bcell r.R.voting_validity;
    Table.bcell (r.R.termination && r.R.voting_validity);
  ]

let e12_poison () =
  let tab = e12b_table () in
  List.iter (fun c -> Table.add_row tab (e12b_row c)) e12b_cells;
  tab

type e12_cell =
  | E12_topo of (string * T.t)
  | E12_poison of
      (string * [ `Complete | `Ring ] * [ `Collude | `Poison ] * string)

let e12_campaign =
  Campaign.v ~id:"e12"
    ~what:"Extension: multi-hop radio voting across topologies + [36] limit"
    ~cells:(fun _ ->
      List.map (fun c -> E12_topo c) e12a_cells
      @ List.map (fun c -> E12_poison c) e12b_cells)
    ~run_cell:(fun _ cell ->
      match cell with
      | E12_topo c -> e12a_row c
      | E12_poison c -> e12b_row c)
    ~collect:(fun _ pairs ->
      let rows p =
        List.filter_map (fun (c, r) -> if p c then Some r else None) pairs
      in
      let ta = e12a_table () in
      List.iter (Table.add_row ta)
        (rows (function E12_topo _ -> true | _ -> false));
      let tb = e12b_table () in
      List.iter (Table.add_row tb)
        (rows (function E12_poison _ -> true | _ -> false));
      Campaign.tables [ ta; tb ])
    ()
