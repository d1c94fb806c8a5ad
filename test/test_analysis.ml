(* Tests of the analysis layer: witness constructions, the experiment
   harness (smoke + shape assertions on the produced tables), and the
   Figure 1 cross-validation. *)

module Table = Vv_prelude.Table
module W = Vv_analysis.Witness
module Oid = Vv_ballot.Option_id

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- witness builders --- *)

let test_inputs_builder () =
  let l = W.inputs ~ag:5 ~bg:2 ~cg:3 in
  match Vv_core.Bounds.decompose ~tie:Vv_ballot.Tie_break.default l with
  | None -> Alcotest.fail "decompose"
  | Some (w, ag, bg, cg) ->
      check_int "A_G" 5 ag;
      check_int "B_G" 2 bg;
      check_int "C_G" 3 cg;
      check (Alcotest.testable Oid.pp Oid.equal) "winner" (Oid.of_int 0) w

let test_inputs_builder_validation () =
  Alcotest.check_raises "cg needs bg"
    (Invalid_argument "Witness.inputs: cg > 0 requires bg >= 1") (fun () ->
      ignore (W.inputs ~ag:3 ~bg:0 ~cg:2));
  Alcotest.check_raises "ag >= bg"
    (Invalid_argument "Witness.inputs: need ag >= bg") (fun () ->
      ignore (W.inputs ~ag:1 ~bg:2 ~cg:0))

let test_inputs_builder_sweep () =
  (* The builder must hit the requested decomposition across a grid. *)
  for ag = 2 to 6 do
    for bg = 1 to min ag 3 do
      for cg = 0 to 4 do
        let l = W.inputs ~ag ~bg ~cg in
        match Vv_core.Bounds.decompose ~tie:Vv_ballot.Tie_break.default l with
        | Some (_, ag', bg', cg') ->
            check_int (Fmt.str "ag %d %d %d" ag bg cg) ag ag';
            check_int (Fmt.str "bg %d %d %d" ag bg cg) bg bg';
            check_int (Fmt.str "cg %d %d %d" ag bg cg) cg cg'
        | None -> Alcotest.fail "decompose"
      done
    done
  done

let test_section7_firing_point () =
  check (Alcotest.option Alcotest.int) "paper's example fires at 7" (Some 7)
    (W.incremental_firing_point ~n:10 W.section7_sequence)

let test_lemma2_cells_match_theory () =
  List.iter
    (fun t ->
      List.iter
        (fun gap ->
          let c = W.lemma2_cell ~t ~bg:1 ~cg:1 ~gap in
          check_bool
            (Fmt.str "t=%d gap=%d matches" t gap)
            true c.W.matches_theory)
        [ t - 1; t; t + 1; t + 2 ])
    [ 1; 2; 3 ]

let test_theorem10_demo () =
  List.iter
    (fun t ->
      let d = W.theorem10_demo ~t in
      check_bool (Fmt.str "lax violates at t=%d" t) true d.W.lax_violates;
      check_bool (Fmt.str "strict safe at t=%d" t) true d.W.strict_safe)
    [ 1; 2 ]

(* --- experiment harness shape --- *)

let rows_of t = List.length (Table.rows t)

(* A campaign's tables at its default run: the full tier and seed. *)
let tables_of c =
  (Vv_exec.Campaign.run c).Vv_exec.Campaign.emitted.Vv_exec.Campaign.tables

let test_fig1a_shape () =
  let t = List.hd (tables_of Vv_analysis.Exp_fig1.fig1a_campaign) in
  check_int "four profiles" 4 (rows_of t)

let test_fig1b_small () =
  (* Shrunk workload: exact and Monte-Carlo must agree within the reported
     half-width (plus slack), per row. *)
  let t = Vv_analysis.Exp_fig1.fig1b ~t_max:1 ~mc_samples:4000 ~trials:20 () in
  check_int "4 profiles x 2 tolerances" 8 (rows_of t);
  List.iter
    (fun row ->
      match row with
      | [ _; _; exact; mc; hw; _ ] ->
          let exact = float_of_string exact
          and mc = float_of_string mc
          and hw = float_of_string hw in
          check_bool "exact ~ mc" true (abs_float (exact -. mc) < hw +. 0.02)
      | _ -> Alcotest.fail "row shape")
    (Table.rows t)

let test_fig1c_shape () =
  let t = List.hd (tables_of Vv_analysis.Exp_fig1.fig1c_campaign) in
  check_int "four profiles" 4 (rows_of t);
  (* H_s at f=0 is exactly 0 for every profile. *)
  List.iter
    (fun row ->
      match row with
      | _ :: _ :: f0 :: _ -> check (Alcotest.string) "H_s(0)=0" "0" f0
      | _ -> Alcotest.fail "row shape")
    (Table.rows t)

let test_e4_shape () =
  let t = List.hd (tables_of Vv_analysis.Exp_examples.e4_campaign) in
  check_int "four scenario rows" 4 (rows_of t);
  (* Row 1: algo1 fooled (term yes, validity no); row 2: SCT safe. *)
  (match Table.rows t with
  | [ _; _; _; "term"; _; _; _; _; _ ] :: _ -> ()
  | r1 :: r2 :: _ ->
      (match r1 with
      | [ _; _; _; _; term; _; validity; _; _ ] ->
          check (Alcotest.string) "algo1 terminates" "yes" term;
          check (Alcotest.string) "algo1 fooled" "no" validity
      | _ -> Alcotest.fail "row shape");
      (match r2 with
      | [ _; _; _; _; term; _; _; safe; _ ] ->
          check (Alcotest.string) "sct stalls" "no" term;
          check (Alcotest.string) "sct safe" "yes" safe
      | _ -> Alcotest.fail "row shape")
  | _ -> Alcotest.fail "table shape")

let test_e6_all_green () =
  let t = List.hd (tables_of Vv_analysis.Exp_bounds.e6_campaign) in
  check_bool "has rows" true (rows_of t > 0);
  List.iter
    (fun row ->
      match row with
      | [ _; _; _; ineq15; term; valid ] ->
          check (Alcotest.string) "ineq15 holds on grid" "yes" ineq15;
          check (Alcotest.string) "algo4 terminates" "yes" term;
          check (Alcotest.string) "algo4 valid" "yes" valid
      | _ -> Alcotest.fail "row shape")
    (Table.rows t)

let test_e7_matches () =
  let t = List.hd (tables_of Vv_analysis.Exp_bounds.e7_campaign) in
  List.iter
    (fun row ->
      match List.rev row with
      | matches :: _ -> check (Alcotest.string) "matches theory" "yes" matches
      | [] -> Alcotest.fail "row shape")
    (Table.rows t)

let test_e10_frontier_monotone () =
  (* More dispersion can never increase the max tolerable t. *)
  let t = List.hd (tables_of Vv_analysis.Exp_bounds.e10_campaign) in
  let cells =
    List.map
      (fun row ->
        match row with
        | [ _; _; disp; _; bft; _; sct ] ->
            (int_of_string disp, int_of_string bft, int_of_string sct)
        | _ -> Alcotest.fail "row shape")
      (Table.rows t)
  in
  List.iter
    (fun (d1, b1, s1) ->
      List.iter
        (fun (d2, b2, s2) ->
          if d1 < d2 then begin
            check_bool "bft monotone" true (b1 >= b2);
            check_bool "sct monotone" true (s1 >= s2)
          end)
        cells)
    cells

let test_e11_ablation_shape () =
  let t = List.hd (tables_of Vv_analysis.Exp_bounds.e11_campaign) in
  List.iter
    (fun row ->
      match row with
      | [ dp; _; dec_term; _; tie_term; tie_valid ] ->
          let dp = int_of_string dp in
          (* Theorem 10: the tie attack wins exactly below delta_P = t. *)
          check (Alcotest.string)
            (Fmt.str "tie validity at dp=%d" dp)
            (if dp < 2 then "no" else "yes")
            tie_valid;
          check (Alcotest.string)
            (Fmt.str "tie termination at dp=%d" dp)
            (if dp < 2 then "yes" else "no")
            tie_term;
          (* Property 3: the decisive electorate (gap 5) terminates iff
             gap > delta_P + t. *)
          check (Alcotest.string)
            (Fmt.str "decisive termination at dp=%d" dp)
            (if 5 > dp + 2 then "yes" else "no")
            dec_term
      | _ -> Alcotest.fail "row shape")
    (Table.rows t)

let test_e12_shapes () =
  let tables = tables_of Vv_analysis.Exp_radio.e12_campaign in
  let t = List.nth tables 0 in
  check_bool "topologies present" true (rows_of t >= 4);
  List.iter
    (fun row ->
      match row with
      | [ _; _; _; term; valid; _; _ ] ->
          check (Alcotest.string) "exact on every topology" "yes" term;
          check (Alcotest.string) "valid on every topology" "yes" valid
      | _ -> Alcotest.fail "row shape")
    (Table.rows t);
  let p = List.nth tables 1 in
  match Table.rows p with
  | [ _; [ _; _; _; _; c_exact ]; _; [ _; _; _; r_valid; r_exact ] ] ->
      check (Alcotest.string) "poison inert on complete" "yes" c_exact;
      check (Alcotest.string) "poison breaks exactness on ring" "no" r_exact;
      check (Alcotest.string) "never a wrong decision" "yes" r_valid
  | _ -> Alcotest.fail "poison table shape"

let test_e13_shapes () =
  (* E13a: SCT column never exceeds the BFT column (Pr(gap>2t) <= Pr(gap>t)). *)
  let tables = tables_of Vv_analysis.Exp_probability.e13_campaign in
  let t = List.nth tables 0 in
  List.iter
    (fun row ->
      match row with
      | _ :: cells ->
          let rec pairs = function
            | bft :: sct :: rest ->
                check_bool "sct <= bft" true
                  (float_of_string sct <= float_of_string bft +. 1e-9);
                pairs rest
            | _ -> ()
          in
          pairs cells
      | [] -> Alcotest.fail "row shape")
    (Table.rows t);
  (* E13b: strong validity fails below N = mt and holds above. *)
  let p = List.nth tables 1 in
  List.iter
    (fun row ->
      match row with
      | [ _; above; _; strong; _ ] ->
          if above = "yes" then
            check (Alcotest.string) "strong ok above mt" "yes" strong
      | _ -> Alcotest.fail "row shape")
    (Table.rows p);
  (match Table.rows p with
  | [ _; _; _; first_strong; _ ] :: _ ->
      check (Alcotest.string) "fails below mt" "no" first_strong
  | _ -> Alcotest.fail "table shape")

let test_e14_shapes () =
  let tables = tables_of Vv_analysis.Exp_extensions.e14_campaign in
  let w = List.nth tables 0 in
  (* Stake concentration never raises the tolerable adversary weight above
     the uniform profile's. *)
  (match Table.rows w with
  | ([ _; _; _; uniform_exact; _ ] :: rest) ->
      List.iter
        (fun row ->
          match row with
          | [ _; _; _; exact; _ ] ->
              check_bool "concentration does not help" true
                (int_of_string exact <= int_of_string uniform_exact)
          | _ -> Alcotest.fail "row shape")
        rest
  | _ -> Alcotest.fail "weighted table shape");
  let m = List.nth tables 2 in
  List.iter
    (fun row ->
      match List.rev row with
      | safe :: _ -> check (Alcotest.string) "multidim always safe" "yes" safe
      | [] -> Alcotest.fail "row shape")
    (Table.rows m)

let test_experiments_registry () =
  check_int "eighteen experiments" 18 (List.length Vv_analysis.Experiments.all);
  List.iter
    (fun id ->
      check_bool (Fmt.str "find %s" id) true
        (Vv_analysis.Experiments.find id <> None))
    Vv_analysis.Experiments.ids;
  check_bool "unknown id" true (Vv_analysis.Experiments.find "nope" = None)

let () =
  Alcotest.run "analysis"
    [
      ( "witness",
        [
          Alcotest.test_case "inputs builder" `Quick test_inputs_builder;
          Alcotest.test_case "builder validation" `Quick
            test_inputs_builder_validation;
          Alcotest.test_case "builder sweep" `Quick test_inputs_builder_sweep;
          Alcotest.test_case "section VII-A firing point" `Quick
            test_section7_firing_point;
          Alcotest.test_case "lemma 2 cells" `Quick test_lemma2_cells_match_theory;
          Alcotest.test_case "theorem 10 demo" `Quick test_theorem10_demo;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig1a shape" `Quick test_fig1a_shape;
          Alcotest.test_case "fig1b exact~mc" `Slow test_fig1b_small;
          Alcotest.test_case "fig1c zero at f=0" `Quick test_fig1c_shape;
          Alcotest.test_case "e4 narrative" `Quick test_e4_shape;
          Alcotest.test_case "e6 all green" `Quick test_e6_all_green;
          Alcotest.test_case "e7 matches theory" `Quick test_e7_matches;
          Alcotest.test_case "e10 frontier monotone" `Quick
            test_e10_frontier_monotone;
          Alcotest.test_case "e11 ablation (Thm 10 + Prop 3)" `Quick
            test_e11_ablation_shape;
          Alcotest.test_case "e12 radio topologies + poison" `Quick
            test_e12_shapes;
          Alcotest.test_case "e13 SCT price + Neiger bound" `Quick
            test_e13_shapes;
          Alcotest.test_case "e14 extensions" `Quick test_e14_shapes;
          Alcotest.test_case "registry" `Quick test_experiments_registry;
        ] );
    ]
