(* Experiments E6, E7 and E10: the tolerance bounds.

   E6: the local broadcast model (Algorithm 4) sheds Inequality (3)'s 3t
       term — sweep (N, t) showing Algorithm 4 succeeding at points where
       N <= 3t as long as Inequality (15) holds.
   E7: adversarial sweeps around the Lemma 2 / Theorem 3 threshold (the
       exactness flip at A_G - B_G = t) and the Theorem 10 demonstration
       that a safety-guaranteed protocol cannot use delta_P < t.
   E10: Theorem 12's trade-off between fault tolerance and vote dispersion
        tolerance, including the third-option trick of Section VI-A. *)

module Table = Vv_prelude.Table
module Bounds = Vv_core.Bounds
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Oid = Vv_ballot.Option_id

let e6_table () =
  Table.create
    ~title:
      "E6: local broadcast drops the 3t term - Algorithm 4 at N <= 3t \
       (B_G=1, C_G=0, f=t colluders)"
    ~headers:
      [ "N"; "t"; "3t<N (Ineq3)"; "Ineq15 ok"; "algo4 term"; "algo4 valid" ]
    ()

(* Points where the electorate has a strict plurality (A_G > B_G with
   B_G = 1, C_G = 0) — the same guard the original row loop applied. *)
let e6_cells =
  List.filter
    (fun (n, tol) ->
      let bg = 1 in
      let ng = n - tol in
      ng - bg > bg)
    [ (7, 1); (7, 2); (9, 2); (9, 3); (10, 3); (11, 3); (12, 4); (13, 4) ]

let e6_row (n, tol) =
  let bg = 1 and cg = 0 in
  let ng = n - tol in
  let ag = ng - bg in
  let honest = Witness.inputs ~ag ~bg ~cg in
  let ineq3 = n > 3 * tol in
  let ineq15 = Bounds.satisfied Bounds.Cft ~n ~t:tol ~bg ~cg in
  let r =
    Runner.simple ~protocol:Runner.Algo4_local ~strategy:Strategy.Collude_second
      ~t:tol ~f:tol honest
  in
  [
    Table.icell n;
    Table.icell tol;
    Table.bcell ineq3;
    Table.bcell ineq15;
    Table.bcell r.Runner.termination;
    Table.bcell r.Runner.voting_validity;
  ]

let e6_campaign =
  Tabulate.campaign ~id:"e6"
    ~what:"Algorithm 4 under local broadcast: the 3t term disappears"
    [
      Tabulate.section ~table:e6_table
        ~cells:(fun _ -> e6_cells)
        ~row:(fun _ c -> Some (e6_row c));
    ]

let e7a_table () =
  Table.create
    ~title:
      "E7a: exactness flips at the Lemma 2 threshold (Algorithm 1 vs f=t \
       colluders)"
    ~headers:
      [ "t"; "B_G"; "C_G"; "gap"; "N"; "bound ok"; "term"; "valid";
        "exact"; "matches theory" ]
    ()

(* The nested sweep flattened in loop order: t, then B_G, then C_G
   (skipping the impossible C_G > 0 with B_G = 0), then the gap. *)
let e7a_cells =
  List.concat_map
    (fun tol ->
      List.concat_map
        (fun bg ->
          List.concat_map
            (fun cg ->
              if cg > 0 && bg = 0 then []
              else
                List.map
                  (fun gap -> (tol, bg, cg, gap))
                  [ tol - 1; tol; tol + 1; tol + 2 ])
            [ 0; 1; 2 ])
        [ 1; 2 ])
    [ 1; 2; 3 ]

let e7a_row (tol, bg, cg, gap) =
  let c = Witness.lemma2_cell ~t:tol ~bg ~cg ~gap in
  [
    Table.icell tol;
    Table.icell bg;
    Table.icell cg;
    Table.icell gap;
    Table.icell c.Witness.n;
    Table.bcell c.Witness.bound_ok;
    Table.bcell c.Witness.terminated;
    Table.bcell c.Witness.valid;
    Table.bcell c.Witness.exact;
    Table.bcell c.Witness.matches_theory;
  ]

let e7b_table () =
  Table.create
    ~title:
      "E7b: Theorem 10 - SCT with delta_P = t-1 is fooled on honest ties; \
       delta_P = t stalls safely"
    ~headers:[ "t"; "lax (t-1) violates"; "strict (t) safe" ]
    ()

let e7b_row tol =
  let d = Witness.theorem10_demo ~t:tol in
  [
    Table.icell tol;
    Table.bcell d.Witness.lax_violates;
    Table.bcell d.Witness.strict_safe;
  ]

let e7_campaign =
  Tabulate.campaign ~id:"e7"
    ~what:"Impossibility thresholds: Lemma 2 flip and Theorem 10"
    [
      Tabulate.section ~table:e7a_table
        ~cells:(fun _ -> e7a_cells)
        ~row:(fun _ c -> Some (e7a_row c));
      Tabulate.section ~table:e7b_table
        ~cells:(fun _ -> [ 1; 2; 3 ])
        ~row:(fun _ t -> Some (e7b_row t));
    ]

let e10a_n = 12

let e10a_table () =
  Table.create
    ~title:
      (Fmt.str
         "E10a: Theorem 12 frontier at N=%d - max tolerable t vs vote \
          dispersion (2B_G + C_G)"
         e10a_n)
    ~headers:
      [ "B_G"; "C_G"; "2B_G+C_G"; "t_vd (K=2)"; "max t BFT/CFT";
        "t_vd (K=3)"; "max t SCT" ]
    ()

let e10a_cells =
  List.concat_map
    (fun bg ->
      List.filter_map
        (fun cg -> if cg > 0 && bg = 0 then None else Some (bg, cg))
        [ 0; 1; 2; 3; 4 ])
    [ 0; 1; 2; 3 ]

let e10a_row (bg, cg) =
  let n = e10a_n in
  [
    Table.icell bg;
    Table.icell cg;
    Table.icell ((2 * bg) + cg);
    Table.fcell ~decimals:1 (Bounds.vote_dispersion_tolerance Bounds.Bft ~bg ~cg);
    Table.icell (Bounds.max_tolerable_t Bounds.Bft ~n ~bg ~cg);
    Table.fcell ~decimals:1 (Bounds.vote_dispersion_tolerance Bounds.Sct ~bg ~cg);
    Table.icell (Bounds.max_tolerable_t Bounds.Sct ~n ~bg ~cg);
  ]

(* E11: ablation of the local judgment condition delta_P.

   Two workloads at t = 2: a decisive electorate (gap = 5) where larger
   delta_P only costs termination (Property 3 needs gap > delta_P + t for
   every honest node to propose), and the Theorem 10 honest-tie attack
   where delta_P < t lets the colluders force an invalid decision through
   the t+1 quorum.  Together they show delta_P = t is the unique safe and
   live choice for safety-guaranteed protocols, and delta_P = 0 maximises
   liveness when validity-below-the-bound is acceptable (Algorithm 1). *)
let e11_t = 2

let e11_table () =
  Table.create
    ~title:
      (Fmt.str
         "E11: delta_P ablation at t=%d - termination on a decisive \
          electorate vs safety under the Theorem 10 tie attack"
         e11_t)
    ~headers:
      [ "delta_P"; "quorum"; "decisive: term"; "decisive: valid";
        "tie attack: term"; "tie attack: tb-valid" ]
    ()

let e11_cells =
  List.concat_map
    (fun dp ->
      List.map
        (fun (quorum_label, protocol) -> (dp, quorum_label, protocol))
        [ ("N-t", Runner.Algo1); ("t+1", Runner.Algo2_sct) ])
    (List.init ((2 * e11_t) + 2) Fun.id)

let e11_row (dp, quorum_label, protocol) =
  let t = e11_t in
  let decisive = Witness.inputs ~ag:(1 + ((2 * t) + 1)) ~bg:1 ~cg:0 in
  let k = 2 * t in
  let tie_inputs =
    List.init k (fun _ -> Oid.of_int 0) @ List.init k (fun _ -> Oid.of_int 1)
  in
  let run_with strategy inputs =
    Runner.run
      (Runner.spec
         ~byzantine:(List.init t (fun i -> List.length inputs + i))
         ~protocol ~strategy
         ~judgment_override:(Vv_core.Variant.Delta_custom dp)
         ~n:(List.length inputs + t)
         ~t
         (inputs @ List.init t (fun _ -> Oid.of_int 0)))
  in
  let dec = run_with Strategy.Collude_second decisive in
  let tie = run_with (Strategy.Collude_fixed 0) tie_inputs in
  [
    Table.icell dp;
    quorum_label;
    Table.bcell dec.Runner.termination;
    Table.bcell dec.Runner.voting_validity;
    Table.bcell tie.Runner.termination;
    Table.bcell tie.Runner.voting_validity_tb;
  ]

let e11_campaign =
  Tabulate.campaign ~id:"e11"
    ~what:"Ablation: local judgment condition delta_P (liveness vs safety)"
    [
      Tabulate.section ~table:e11_table
        ~cells:(fun _ -> e11_cells)
        ~row:(fun _ c -> Some (e11_row c));
    ]

(* Section VI-A's remark: moving a hesitant vote from the runner-up B to a
   third option C shrinks the bound (B_G weighs double).  Compare the two
   input multisets empirically at the marginal tolerance. *)
let e10b_table () =
  Table.create
    ~title:
      "E10b: third-option trick - voting C instead of B buys one more \
       tolerable fault"
    ~headers:
      [ "honest inputs"; "B_G"; "C_G"; "bound (t=3)"; "N"; "term"; "valid" ]
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    ()

(* 13 honest votes: A x9 + four votes that either pile on B or spread. *)
let e10b_cells =
  [
    ( "A*9 B*4      (hesitant voters all pick B)",
      Witness.inputs ~ag:9 ~bg:4 ~cg:0 );
    ( "A*9 B*2 C,D  (two hesitant voters pick third options)",
      List.map Oid.of_int [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 2; 3 ] );
  ]

(* Returns [None] (no row) for degenerate multisets [decompose] rejects. *)
let e10b_row (label, honest) =
  match Bounds.decompose ~tie:Vv_ballot.Tie_break.default honest with
  | None -> None
  | Some (_, _, bg, cg) ->
      let tol = 3 in
      let n = List.length honest + tol in
      let r =
        Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
          ~t:tol ~f:tol honest
      in
      Some
        [
          label;
          Table.icell bg;
          Table.icell cg;
          Table.icell (Bounds.bft_bound ~t:tol ~bg ~cg);
          Table.icell n;
          Table.bcell r.Runner.termination;
          Table.bcell r.Runner.voting_validity;
        ]

(* Two tables, one campaign: the frontier grid (one cell per (B_G, C_G)
   point) and the third-option comparison. *)
let e10_campaign =
  Tabulate.campaign ~id:"e10"
    ~what:"Theorem 12: dispersion-tolerance frontier and third-option trick"
    [
      Tabulate.section ~table:e10a_table
        ~cells:(fun _ -> e10a_cells)
        ~row:(fun _ c -> Some (e10a_row c));
      Tabulate.section ~table:e10b_table
        ~cells:(fun _ -> e10b_cells)
        ~row:(fun _ c -> e10b_row c);
    ]
