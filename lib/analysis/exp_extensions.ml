(* Experiment E14: the library extensions in action.

   E14a: weighted (stake-based) voting thresholds — how stake
         concentration moves the tolerable adversary weight (the weighted
         Lemma-2 threshold of Vv_ballot.Weighted).
   E14b: approval voting under collusion — the endorsement-gap analogue of
         the paper's exactness condition, run on the live protocol.
   E14c: multi-dimensional subjects — coordinate-wise voting validity with
         per-coordinate stalls isolated (SCT). *)

module Table = Vv_prelude.Table
module Oid = Vv_ballot.Option_id
module Weighted = Vv_ballot.Weighted

let e14a_table () =
  Table.create
    ~title:
      "E14a: stake-weighted thresholds - max tolerable adversary weight \
       per stake profile (options A/B)"
    ~headers:
      [ "stake profile"; "total W"; "gap"; "max W_F exact"; "max W_F SCT" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ()

let e14a_cells =
  let v c w = Weighted.vote ~choice:(Oid.of_int c) ~weight:w in
  [
    ( "uniform: 7xA(1) 3xB(1)",
      List.init 7 (fun _ -> v 0 1) @ List.init 3 (fun _ -> v 1 1) );
    ("whale-for-A: A(8) + 6xB(1)", v 0 8 :: List.init 6 (fun _ -> v 1 1));
    ( "whale-against: 8xA(1) + B(6)",
      List.init 8 (fun _ -> v 0 1) @ [ v 1 6 ] );
    ("two whales: A(7) B(5)", [ v 0 7; v 1 5 ]);
  ]

let e14a_row (label, votes) =
  let tie = Vv_ballot.Tie_break.default in
  let max_wf pred votes =
    let rec go w = if pred ~byz_weight:(w + 1) votes then go (w + 1) else w in
    go (-1)
  in
  let gap = Option.value ~default:0 (Weighted.gap ~tie votes) in
  [
    label;
    Table.icell (Weighted.total_weight votes);
    Table.icell gap;
    Table.icell (max_wf (Weighted.exactness_guaranteed ~tie) votes);
    Table.icell (max_wf (Weighted.sct_guaranteed ~tie) votes);
  ]

let e14b_table () =
  Table.create
    ~title:
      "E14b: approval voting under collusion (N=7, t=f=1; endorsements \
       listed as A/B/C)"
    ~headers:
      [ "honest approval sets"; "A/B/C endorsements"; "gap"; "term"; "winner" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left ]
    ()

let e14b_cells =
  [
    ( "everyone {A}, half also {B}",
      fun id ->
        if id mod 2 = 0 then [ Oid.of_int 0; Oid.of_int 1 ]
        else [ Oid.of_int 0 ] );
    ( "split camps {A,C} vs {B,C}",
      fun id ->
        if id < 3 then [ Oid.of_int 0; Oid.of_int 2 ]
        else [ Oid.of_int 1; Oid.of_int 2 ] );
    ( "thin: {A,B} x3, {A} x1, {B} x2",
      fun id ->
        if id < 3 then [ Oid.of_int 0; Oid.of_int 1 ]
        else if id = 3 then [ Oid.of_int 0 ]
        else [ Oid.of_int 1 ] );
  ]

let e14b_row (label, approvals) =
  let honest_approvals = List.init 6 approvals in
  let counts =
    List.fold_left
      (fun acc set ->
        List.fold_left Vv_ballot.Tally.add acc (List.sort_uniq Oid.compare set))
      Vv_ballot.Tally.empty honest_approvals
  in
  let cell =
    Fmt.str "%d/%d/%d"
      (Vv_ballot.Tally.count counts (Oid.of_int 0))
      (Vv_ballot.Tally.count counts (Oid.of_int 1))
      (Vv_ballot.Tally.count counts (Oid.of_int 2))
  in
  let gap =
    Option.value ~default:0
      (Vv_ballot.Tally.gap ~tie:Vv_ballot.Tie_break.default counts)
  in
  let cfg = Vv_sim.Config.with_byzantine ~n:7 ~t_max:1 [ 6 ] () in
  let r =
    Vv_core.Approval.execute cfg ~speaker:0 ~subject:1 ~approvals ~quorum_gap:0
      ~collude:true ()
  in
  let term = List.for_all Option.is_some r.Vv_core.Approval.outputs in
  let winner =
    match List.filter_map Fun.id r.Vv_core.Approval.outputs with
    | w :: _ -> Oid.to_string w
    | [] -> "-"
  in
  [ label; cell; Table.icell gap; Table.bcell term; winner ]

let e14c_table () =
  Table.create
    ~title:
      "E14c: multi-dimensional subject (manoeuvre x speed), SCT per \
       coordinate (N=9, t=f=1)"
    ~headers:
      [ "electorate"; "coord 0"; "coord 1"; "termination"; "validity"; "safe" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right;
        Table.Right ]
    ()

let e14c_cells =
  let o = Oid.of_int in
  [
    ( "both decisive",
      List.init 8 (fun i -> [ o 0; o (if i = 7 then 2 else 1) ]) );
    ( "coord 1 contested",
      List.init 8 (fun i -> [ o 0; o (if i < 4 then 1 else 2) ]) );
  ]

(* Returns [None] (no row) when the output vector is not two-dimensional. *)
let e14c_row (label, inputs) =
  let show = function Some v -> Oid.to_string v | None -> "stalled" in
  let r =
    Vv_core.Multidim.run ~protocol:Vv_core.Runner.Algo2_sct ~t:1 ~f:1 inputs
  in
  match r.Vv_core.Multidim.output_vector with
  | [ c0; c1 ] ->
      Some
        [
          label;
          show c0;
          show c1;
          Table.bcell r.Vv_core.Multidim.termination;
          Table.bcell r.Vv_core.Multidim.voting_validity;
          Table.bcell r.Vv_core.Multidim.safety_admissible;
        ]
  | _ -> None

let e14_campaign =
  Tabulate.campaign ~id:"e14"
    ~what:"Extensions: weighted stakes, approval voting, multi-dimensional"
    [
      Tabulate.section ~table:e14a_table
        ~cells:(fun _ -> e14a_cells)
        ~row:(fun _ c -> Some (e14a_row c));
      Tabulate.section ~table:e14b_table
        ~cells:(fun _ -> e14b_cells)
        ~row:(fun _ c -> Some (e14b_row c));
      Tabulate.section ~table:e14c_table
        ~cells:(fun _ -> e14c_cells)
        ~row:(fun _ c -> e14c_row c);
    ]
