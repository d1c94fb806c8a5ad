(* Tests of the ballot layer: tallies, the Sort decomposition, tie-breaking
   conventions, and the paper's validity predicates. *)

open Vv_ballot

let o = Option_id.of_int
let opt_testable = Alcotest.testable Option_id.pp Option_id.equal
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_opt = check (Alcotest.option opt_testable)

(* The Section III-A example: 7 nodes (one Byzantine), candidates Alice(A),
   Bob(B), Carol(C); honest votes 3xA, 2xB, 1xC; the faulty node votes B. *)
let example_honest = [ o 0; o 0; o 0; o 1; o 1; o 2 ]
let example_view = Tally.of_list (o 1 :: example_honest)

let test_example_counts () =
  check_int "B_1" 3 (Tally.count example_view (o 1));
  check_int "A_1" 3 (Tally.count example_view (o 0));
  check_int "C_1" 1 (Tally.count example_view (o 2));
  check_int "total" 7 (Tally.total example_view);
  check_int "distinct" 3 (Tally.distinct example_view)

let test_tally_basics () =
  let t = Tally.empty in
  check_int "empty count" 0 (Tally.count t (o 0));
  check_bool "empty" true (Tally.is_empty t);
  let t = Tally.add_many t (o 3) 4 in
  check_int "bulk add" 4 (Tally.count t (o 3));
  let t2 = Tally.merge t (Tally.of_list [ o 3; o 1 ]) in
  check_int "merged" 5 (Tally.count t2 (o 3));
  check_int "merged other" 1 (Tally.count t2 (o 1));
  Alcotest.check_raises "negative" (Invalid_argument "Tally.add_many: negative count")
    (fun () -> ignore (Tally.add_many t (o 0) (-1)))

let test_sort_decomposition () =
  (* Inputs {0,0,0,1,1,2,3}: A=0 (3 votes), B=1 (2 votes), C covers {2,3}. *)
  let t = Tally.of_list [ o 0; o 0; o 0; o 1; o 1; o 2; o 3 ] in
  match Tally.top ~tie:Tie_break.default t with
  | None -> Alcotest.fail "expected top"
  | Some { a; a_count; b; b_count; c_count } ->
      check_opt "A" (Some (o 0)) (Some a);
      check_int "A count" 3 a_count;
      check_opt "B" (Some (o 1)) b;
      check_int "B count" 2 b_count;
      check_int "C total" 2 c_count

let test_tie_break_conventions () =
  let t = Tally.of_list [ o 0; o 0; o 1; o 1 ] in
  check_opt "prefer larger" (Some (o 1))
    (Tally.plurality ~tie:Tie_break.Prefer_larger t);
  check_opt "prefer smaller" (Some (o 0))
    (Tally.plurality ~tie:Tie_break.Prefer_smaller t);
  let reversed = Tie_break.Custom (fun x y -> Option_id.compare y x) in
  check_opt "custom reversed" (Some (o 0)) (Tally.plurality ~tie:reversed t)

let test_gap () =
  let t = Tally.of_list [ o 0; o 0; o 0; o 1 ] in
  check (Alcotest.option Alcotest.int) "gap" (Some 2)
    (Tally.gap ~tie:Tie_break.default t);
  check (Alcotest.option Alcotest.int) "single option gap"
    (Some 5)
    (Tally.gap ~tie:Tie_break.default (Tally.of_counts [ (o 0, 5) ]));
  check (Alcotest.option Alcotest.int) "empty" None
    (Tally.gap ~tie:Tie_break.default Tally.empty)

let test_voting_preference () =
  check_bool "A > B" true
    (Validity.voting_preference ~honest_inputs:example_honest (o 0) (o 1));
  check_bool "B !> A" false
    (Validity.voting_preference ~honest_inputs:example_honest (o 1) (o 0));
  (* Equal counts: strict preference must fail both ways. *)
  let tied = [ o 0; o 1 ] in
  check_bool "tie no pref" false
    (Validity.voting_preference ~honest_inputs:tied (o 0) (o 1));
  check_bool "tie no pref rev" false
    (Validity.voting_preference ~honest_inputs:tied (o 1) (o 0))

let test_integrity () =
  (* Lemma 2's scenario: B_i >= A_i forbids outputting A. *)
  let view = Tally.of_counts [ (o 0, 3); (o 1, 5) ] in
  check_bool "cannot output A" false
    (Validity.integrity_allows ~view ~output:(o 0));
  check_bool "can output B" true (Validity.integrity_allows ~view ~output:(o 1));
  let tie_view = Tally.of_counts [ (o 0, 4); (o 1, 4) ] in
  check_bool "tie forbids both" false
    (Validity.integrity_allows ~view:tie_view ~output:(o 0) );
  check_bool "tie forbids both'" false
    (Validity.integrity_allows ~view:tie_view ~output:(o 1))

(* [p]-admissibility of [outputs] for honest inputs [honest] under the
   default tie rule. *)
let admissible p honest outputs =
  Property.admissible p
    (Validity.summarize ~tie:Tie_break.default honest)
    ~t_tol:0 ~outputs

let test_voting_validity () =
  let honest = [ o 0; o 0; o 0; o 1; o 1; o 2; o 3 ] in
  let strict = admissible Property.voting_strict in
  (* Output 0 everywhere: valid. *)
  check_bool "valid" true (strict honest [ Some (o 0); Some (o 0) ]);
  (* Output 1: violates. *)
  check_bool "invalid" false (strict honest [ Some (o 1) ]);
  (* Undecided nodes never violate. *)
  check_bool "stall ok" true (strict honest [ None; None ]);
  (* Tie without strict plurality: strict checker is vacuous, tb checker
     pins the tie-break winner. *)
  let tied = [ o 0; o 0; o 1; o 1 ] in
  check_bool "tie vacuous" true (strict tied [ Some (o 0) ]);
  check_bool "tie tb pinned" false
    (admissible Property.voting tied [ Some (o 0) ]);
  check_bool "tie tb winner" true
    (admissible Property.voting tied [ Some (o 1) ])

let test_strong_validity_and_agreement () =
  let honest = [ o 0; o 1 ] in
  check_bool "strong ok" true
    (admissible Property.strong honest [ Some (o 1) ]);
  check_bool "strong bad" false
    (admissible Property.strong honest [ Some (o 5) ]);
  check_bool "agreement ok" true
    (Validity.agreement ~outputs:[ Some (o 1); None; Some (o 1) ]);
  check_bool "agreement bad" false
    (Validity.agreement ~outputs:[ Some (o 1); Some (o 2) ]);
  check_bool "termination needs all" false
    (Validity.termination ~outputs:[ Some (o 1); None ])

let test_differential_validity () =
  let honest = [ o 0; o 0; o 0; o 1; o 1 ] in
  (* Output 1 trails the plurality by 1: 1-differential but not 0. *)
  check_bool "0-diff fails" false
    (Validity.differential_validity ~delta:0 ~honest_inputs:honest
       ~outputs:[ Some (o 1) ]);
  check_bool "1-diff holds" true
    (Validity.differential_validity ~delta:1 ~honest_inputs:honest
       ~outputs:[ Some (o 1) ]);
  check_bool "plurality is 0-diff" true
    (Validity.differential_validity ~delta:0 ~honest_inputs:honest
       ~outputs:[ Some (o 0) ]);
  check_bool "undecided ok" true
    (Validity.differential_validity ~delta:0 ~honest_inputs:honest
       ~outputs:[ None ]);
  Alcotest.check_raises "negative delta"
    (Invalid_argument "differential_validity: negative delta") (fun () ->
      ignore
        (Validity.differential_validity ~delta:(-1) ~honest_inputs:honest
           ~outputs:[]))

(* Paper remark after Def III.3: voting validity implies strong validity. *)
let test_voting_implies_strong () =
  let honest = [ o 0; o 0; o 1 ] in
  match Validity.honest_plurality ~tie:Tie_break.default ~honest_inputs:honest with
  | None -> Alcotest.fail "plurality expected"
  | Some w ->
      check_bool "winner is an honest input" true
        (List.exists (Option_id.equal w) honest)

(* --- weighted voting --- *)

let wv c w = Weighted.vote ~choice:(o c) ~weight:w

let test_weighted_tally () =
  let votes = [ wv 0 5; wv 1 3; wv 0 2; wv 2 1 ] in
  let t = Weighted.tally votes in
  check_int "A weight" 7 (Tally.count t (o 0));
  check_int "B weight" 3 (Tally.count t (o 1));
  check_int "total" 11 (Weighted.total_weight votes);
  check_opt "weighted plurality" (Some (o 0))
    (Weighted.plurality ~tie:Tie_break.default votes);
  Alcotest.check_raises "positive weight"
    (Invalid_argument "Weighted.vote: weight must be positive") (fun () ->
      ignore (Weighted.vote ~choice:(o 0) ~weight:0))

let test_weighted_thresholds () =
  (* Gap 7 - 3 = 4: safe against weight <= 3, SCT-safe against weight 1. *)
  let votes = [ wv 0 7; wv 1 3 ] in
  let tie = Tie_break.default in
  check_bool "exact at W_F=3" true
    (Weighted.exactness_guaranteed ~tie ~byz_weight:3 votes);
  check_bool "not exact at W_F=4" false
    (Weighted.exactness_guaranteed ~tie ~byz_weight:4 votes);
  check_bool "sct at W_F=1" true (Weighted.sct_guaranteed ~tie ~byz_weight:1 votes);
  check_bool "not sct at W_F=2" false
    (Weighted.sct_guaranteed ~tie ~byz_weight:2 votes);
  check_opt "adversary target below threshold" (Some (o 1))
    (Weighted.adversary_target ~tie ~byz_weight:4 votes);
  check_opt "no target above threshold" None
    (Weighted.adversary_target ~tie ~byz_weight:3 votes)

let test_weighted_expand_consistent () =
  let votes = [ wv 0 3; wv 1 2; wv 2 1 ] in
  let expanded = Weighted.expand votes in
  check_int "size = total weight" 6 (List.length expanded);
  check_opt "same plurality"
    (Weighted.plurality ~tie:Tie_break.default votes)
    (Tally.plurality ~tie:Tie_break.default (Tally.of_list expanded))

let test_weighted_validity () =
  let honest = [ wv 0 5; wv 1 4 ] in
  check_bool "valid" true
    (Weighted.voting_validity ~tie:Tie_break.default ~honest_votes:honest
       ~outputs:[ Some (o 0) ]);
  check_bool "invalid" false
    (Weighted.voting_validity ~tie:Tie_break.default ~honest_votes:honest
       ~outputs:[ Some (o 1) ])

(* --- properties --- *)

let gen_inputs =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" Fmt.(Dump.list int) l)
    QCheck.Gen.(list_size (int_range 1 30) (int_range 0 5))

let prop_plurality_maximal =
  QCheck.Test.make ~name:"plurality has maximal count" gen_inputs (fun l ->
      let inputs = List.map o l in
      let t = Tally.of_list inputs in
      match Tally.plurality ~tie:Tie_break.default t with
      | None -> false
      | Some w ->
          let cw = Tally.count t w in
          List.for_all (fun (_, c) -> c <= cw) (Tally.support t))

let prop_top_consistent =
  QCheck.Test.make ~name:"top decomposition partitions the total" gen_inputs
    (fun l ->
      let inputs = List.map o l in
      let t = Tally.of_list inputs in
      match Tally.top ~tie:Tie_break.default t with
      | None -> false
      | Some { a_count; b_count; c_count; _ } ->
          a_count + b_count + c_count = Tally.total t)

let prop_voting_implies_strong =
  QCheck.Test.make ~name:"voting validity implies strong validity" gen_inputs
    (fun l ->
      let inputs = List.map o l in
      match Validity.honest_plurality ~tie:Tie_break.default ~honest_inputs:inputs with
      | None -> true
      | Some w -> admissible Property.strong inputs [ Some w ])

let prop_tie_breaks_agree_on_strict =
  QCheck.Test.make ~name:"tie-break irrelevant under strict plurality"
    gen_inputs (fun l ->
      let inputs = List.map o l in
      if not (Validity.has_strict_plurality ~honest_inputs:inputs) then true
      else
        Validity.honest_plurality ~tie:Tie_break.Prefer_larger
          ~honest_inputs:inputs
        = Validity.honest_plurality ~tie:Tie_break.Prefer_smaller
            ~honest_inputs:inputs)

let gen_weighted =
  QCheck.make
    ~print:(fun l -> Fmt.str "%a" Fmt.(Dump.list (Dump.pair int int)) l)
    QCheck.Gen.(
      list_size (int_range 1 12) (pair (int_range 0 3) (int_range 1 9)))

let prop_weighted_expand_equiv =
  QCheck.Test.make ~name:"weighted plurality = expanded plurality" gen_weighted
    (fun l ->
      let votes = List.map (fun (c, w) -> wv c w) l in
      Weighted.plurality ~tie:Tie_break.default votes
      = Tally.plurality ~tie:Tie_break.default
          (Tally.of_list (Weighted.expand votes)))

let prop_weighted_exactness_monotone =
  QCheck.Test.make ~name:"weighted exactness anti-monotone in W_F" gen_weighted
    (fun l ->
      let votes = List.map (fun (c, w) -> wv c w) l in
      let tie = Tie_break.default in
      let rec go w =
        w > 10
        || ((not (Weighted.exactness_guaranteed ~tie ~byz_weight:(w + 1) votes))
            || Weighted.exactness_guaranteed ~tie ~byz_weight:w votes)
           && go (w + 1)
      in
      go 0)

let prop_plurality_is_zero_differential =
  QCheck.Test.make ~name:"plurality winner is 0-differential" gen_inputs
    (fun l ->
      let inputs = List.map o l in
      match Validity.honest_plurality ~tie:Tie_break.default ~honest_inputs:inputs with
      | None -> true
      | Some w ->
          Validity.differential_validity ~delta:0 ~honest_inputs:inputs
            ~outputs:[ Some w ])

let prop_differential_monotone_in_delta =
  QCheck.Test.make ~name:"differential validity monotone in delta" gen_inputs
    (fun l ->
      let inputs = List.map o l in
      match inputs with
      | [] -> true
      | v :: _ ->
          let holds d =
            Validity.differential_validity ~delta:d ~honest_inputs:inputs
              ~outputs:[ Some v ]
          in
          let rec check_chain d = d > 5 || ((not (holds d)) || holds (d + 1)) && check_chain (d + 1) in
          check_chain 0)

let prop_integrity_of_winner =
  QCheck.Test.make ~name:"strict winner always passes integrity" gen_inputs
    (fun l ->
      let inputs = List.map o l in
      let view = Tally.of_list inputs in
      if not (Validity.has_strict_plurality ~honest_inputs:inputs) then true
      else
        match Tally.plurality ~tie:Tie_break.default view with
        | None -> false
        | Some w -> Validity.integrity_allows ~view ~output:w)

(* Satellite: [Tie_break.compare_ranked] must be a total order consistent
   with [Tie_break.wins], under both tie-break conventions.  These pin the
   monomorphic comparator against regressions back to polymorphic
   [compare] (whose meaning would drift with the representation). *)
let gen_ranked =
  QCheck.make
    ~print:(fun (x, c) -> Printf.sprintf "(opt %d, count %d)" x c)
    QCheck.Gen.(pair (int_range 0 5) (int_range 0 4))

let ranked (x, c) = (o x, c)
let sign v = Stdlib.compare v 0
let conventions = [ Tie_break.Prefer_larger; Tie_break.Prefer_smaller ]

let prop_compare_ranked_antisym =
  QCheck.Test.make ~name:"compare_ranked antisymmetric (both conventions)"
    QCheck.(pair gen_ranked gen_ranked)
    (fun (a, b) ->
      let a = ranked a and b = ranked b in
      List.for_all
        (fun tb ->
          sign (Tie_break.compare_ranked tb a b)
          = -sign (Tie_break.compare_ranked tb b a))
        conventions)

let prop_compare_ranked_transitive =
  QCheck.Test.make ~name:"compare_ranked transitive (both conventions)"
    QCheck.(triple gen_ranked gen_ranked gen_ranked)
    (fun (a, b, c) ->
      let a = ranked a and b = ranked b and c = ranked c in
      List.for_all
        (fun tb ->
          let cmp = Tie_break.compare_ranked tb in
          if cmp a b <= 0 && cmp b c <= 0 then cmp a c <= 0 else true)
        conventions)

let prop_compare_ranked_consistent_with_wins =
  QCheck.Test.make
    ~name:"compare_ranked ties resolve exactly by Tie_break.wins"
    QCheck.(triple (int_range 0 5) (int_range 0 5) (int_range 0 4))
    (fun (x, y, c) ->
      QCheck.assume (x <> y);
      List.for_all
        (fun tb ->
          let lt = Tie_break.compare_ranked tb (o x, c) (o y, c) < 0 in
          lt = Tie_break.wins tb (o x) (o y))
        conventions)

(* --- the first-class property layer --- *)

(* A random classification scene: tie convention, tolerance, a non-empty
   honest multiset and an arbitrary (possibly partial, possibly absurd)
   output vector. *)
let gen_property_case =
  QCheck.make
    ~print:(fun (tie, t_tol, honest, outs) ->
      Fmt.str "tie=%s t=%d honest=%a outputs=%a"
        (match tie with
        | Tie_break.Prefer_larger -> "larger"
        | Tie_break.Prefer_smaller -> "smaller"
        | Tie_break.Custom _ -> "custom")
        t_tol
        Fmt.(Dump.list int)
        honest
        Fmt.(Dump.list (Dump.option int))
        outs)
    QCheck.Gen.(
      bool >>= fun larger ->
      int_range 0 4 >>= fun t_tol ->
      list_size (int_range 1 20) (int_range 0 5) >>= fun honest ->
      list_size (int_range 0 12) (opt (int_range 0 7)) >>= fun outs ->
      return
        ( (if larger then Tie_break.Prefer_larger else Tie_break.Prefer_smaller),
          t_tol,
          honest,
          outs ))

let scene_of (tie, t_tol, honest, outs) =
  (tie, t_tol, List.map o honest, List.map (Option.map o) outs)

(* Every declared hierarchy edge is a theorem: admissibility under the
   stronger property forces admissibility under everything it implies,
   on arbitrary output vectors. *)
let prop_hierarchy_sound =
  QCheck.Test.make ~name:"admissibility respects the hierarchy edges"
    gen_property_case (fun case ->
      let tie, t_tol, honest_inputs, outputs = scene_of case in
      let s = Validity.summarize ~tie honest_inputs in
      List.for_all
        (fun p ->
          (not (Property.admissible p s ~t_tol ~outputs))
          || List.for_all
               (fun q ->
                 (not (Property.implies p q))
                 || Property.admissible q s ~t_tol ~outputs)
               Property.all)
        Property.all)

(* Whether one option strictly beats every other, from the ranking. *)
let direct_strict inputs =
  match Tally.ranked ~tie:Tie_break.default (Tally.of_list inputs) with
  | [] -> false
  | [ _ ] -> true
  | (_, ca) :: (_, cb) :: _ -> ca > cb

(* Non-vacuous soundness: deciding the output a property mandates is
   admissible for the property itself and all the way down its cone.
   Voting mandates the tie-break plurality, strict voting the plurality
   when it is strict, and weak validity the value of a unanimous
   electorate; each is worked out here from the tally, not from the
   summary under test. *)
let prop_required_output_admissible =
  QCheck.Test.make ~name:"required_output admissible down the cone"
    gen_property_case (fun case ->
      let tie, t_tol, honest_inputs, _ = scene_of case in
      let s = Validity.summarize ~tie honest_inputs in
      let plurality = Tally.plurality ~tie (Tally.of_list honest_inputs) in
      let unanimous =
        match honest_inputs with
        | v :: rest when List.for_all (Option_id.equal v) rest -> Some v
        | _ -> None
      in
      List.for_all
        (fun (p, mandated) ->
          match mandated with
          | None -> true
          | Some v ->
              let outputs = [ Some v; None; Some v ] in
              List.for_all
                (fun q ->
                  (not (Property.implies p q))
                  || Property.admissible q s ~t_tol ~outputs)
                Property.all)
        [
          (Property.voting, plurality);
          ( Property.voting_strict,
            if direct_strict honest_inputs then plurality else None );
          (Property.weak, unanimous);
        ])

(* The honest-input summary against the tally-based definitions it
   replaced: one tally and one ranking must give every plurality-based
   verdict the direct forms give, under every tie-break rule, including
   empty multisets, undecided outputs and outputs no honest node holds.
   The Property instances read the summary, so they are held to the same
   reference. *)
let ties =
  [
    Tie_break.Prefer_larger;
    Tie_break.Prefer_smaller;
    Tie_break.Custom (fun x y -> Option_id.compare y x);
    (* 2 > 0 > 3 > 1 *)
    Tie_break.Custom
      (fun x y ->
        let rank v = [| 2; 0; 3; 1; 4 |].(Option_id.to_int v) in
        Int.compare (rank x) (rank y));
  ]

let gen_summary_case =
  QCheck.make
    ~print:(fun (tie, inputs, outputs) ->
      Fmt.str "tie %d, inputs %a, outputs %a" tie
        Fmt.(Dump.list int) inputs
        Fmt.(Dump.list (Dump.option int)) outputs)
    QCheck.Gen.(
      triple (int_range 0 3)
        (list_size (int_range 0 7) (int_range 0 3))
        (list_size (int_range 0 5) (opt (int_range 0 4))))

let direct_decided_all a outputs =
  List.for_all (function None -> true | Some v -> Option_id.equal v a) outputs

let prop_summary_matches_direct =
  QCheck.Test.make ~count:2000 ~name:"honest summary = direct predicates"
    gen_summary_case (fun (tie, inputs, outputs) ->
      let tie = List.nth ties tie in
      let honest_inputs = List.map o inputs in
      let outputs = List.map (Option.map o) outputs in
      let plurality = Tally.plurality ~tie (Tally.of_list honest_inputs) in
      let voting_tb =
        match plurality with
        | None -> true
        | Some a -> direct_decided_all a outputs
      in
      let voting = (not (direct_strict honest_inputs)) || voting_tb in
      let strong =
        List.for_all
          (function
            | None -> true
            | Some v -> List.exists (Option_id.equal v) honest_inputs)
          outputs
      in
      let s = Validity.summarize ~tie honest_inputs in
      let adm p = Property.admissible p s ~t_tol:1 ~outputs in
      s.Validity.inputs = honest_inputs
      && s.Validity.plurality = plurality
      && s.Validity.strict = direct_strict honest_inputs
      && Validity.honest_plurality ~tie ~honest_inputs = plurality
      && Validity.has_strict_plurality ~honest_inputs
         = direct_strict honest_inputs
      && adm Property.voting = voting_tb
      && adm Property.voting_strict = voting
      && adm Property.strong = strong)

let test_property_hierarchy () =
  let imp = Property.implies in
  check_bool "implies is reflexive" true
    (List.for_all (fun p -> imp p p) Property.all);
  check_bool "voting -> voting-strict" true
    (imp Property.voting Property.voting_strict);
  check_bool "voting -> strong" true (imp Property.voting Property.strong);
  check_bool "voting -> weak" true (imp Property.voting Property.weak);
  check_bool "voting -> interval" true (imp Property.voting Property.interval);
  check_bool "voting -/-> median" false (imp Property.voting Property.median);
  check_bool "median -> interval" true (imp Property.median Property.interval);
  check_bool "median -> weak" true (imp Property.median Property.weak);
  check_bool "median -/-> strong" false (imp Property.median Property.strong);
  check_bool "strong -/-> voting" false (imp Property.strong Property.voting);
  check_bool "voting-strict entails only itself" true
    (List.for_all
       (fun q ->
         Property.equal q Property.voting_strict
         || not (imp Property.voting_strict q))
       Property.all);
  (* The missing voting -> median edge is semantic, not an omission:
     honest inputs {0,0,3,4,5} have plurality 0, yet at t = 0 the median
     window of the sorted multiset is [3, 3]. *)
  let honest_inputs = List.map o [ 0; 0; 3; 4; 5 ] in
  let adm p = admissible p honest_inputs [ Some (o 0) ] in
  check_bool "plurality decision is voting-admissible" true
    (adm Property.voting);
  check_bool "but not median-admissible" false (adm Property.median)

(* [Property.judge]: safety on the decided outputs (agreement and
   admissibility under the summary's tie rule), then liveness. *)
let test_property_judge () =
  let verdict =
    Alcotest.testable (Fmt.of_to_string Property.verdict_label) ( = )
  in
  let tied = [ o 0; o 0; o 1; o 1 ] in
  let judge p ~tie honest outputs =
    Property.judge p (Validity.summarize ~tie honest) ~t_tol:1 ~outputs
  in
  let ones = [ Some (o 1); Some (o 1); Some (o 1); Some (o 1) ] in
  check verdict "tie decided 1, ties to smaller" Property.Violation
    (judge Property.voting ~tie:Tie_break.Prefer_smaller tied ones);
  check verdict "tie decided 1, ties to larger" Property.Exact
    (judge Property.voting ~tie:Tie_break.Prefer_larger tied ones);
  check verdict "one honest node undecided" Property.Stall
    (judge Property.voting ~tie:Tie_break.Prefer_larger tied
       [ Some (o 1); None; Some (o 1); Some (o 1) ]);
  (* Each output alone is strong-admissible and exact; together they
     disagree. *)
  let spread = [ o 0; o 1; o 2 ] in
  let strong = judge Property.strong ~tie:Tie_break.default spread in
  check verdict "output 0 alone" Property.Exact (strong [ Some (o 0) ]);
  check verdict "output 2 alone" Property.Exact (strong [ Some (o 2) ]);
  check verdict "admissible outputs that differ" Property.Violation
    (strong [ Some (o 0); Some (o 2) ]);
  check
    Alcotest.(list string)
    "labels" [ "exact"; "stall"; "violation" ]
    (List.map Property.verdict_label
       [ Property.Exact; Property.Stall; Property.Violation ])

let test_property_registry () =
  check_int "six properties" 6 (List.length Property.all);
  check
    Alcotest.(list string)
    "names"
    [ "voting"; "voting-strict"; "strong"; "weak"; "interval"; "median" ]
    Property.names;
  List.iter
    (fun p ->
      match Property.find (Property.id p) with
      | Some q ->
          check_bool (Property.id p ^ " round-trips") true (Property.equal p q)
      | None -> Alcotest.failf "find %s returned None" (Property.id p))
    Property.all;
  check_bool "unknown name" true (Property.find "nope" = None)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_plurality_maximal;
      prop_top_consistent;
      prop_voting_implies_strong;
      prop_tie_breaks_agree_on_strict;
      prop_weighted_expand_equiv;
      prop_weighted_exactness_monotone;
      prop_plurality_is_zero_differential;
      prop_differential_monotone_in_delta;
      prop_integrity_of_winner;
      prop_compare_ranked_antisym;
      prop_compare_ranked_transitive;
      prop_compare_ranked_consistent_with_wins;
      prop_hierarchy_sound;
      prop_required_output_admissible;
      prop_summary_matches_direct;
    ]

let () =
  Alcotest.run "ballot"
    [
      ( "tally",
        [
          Alcotest.test_case "section III-A example" `Quick test_example_counts;
          Alcotest.test_case "basics" `Quick test_tally_basics;
          Alcotest.test_case "sort decomposition" `Quick test_sort_decomposition;
          Alcotest.test_case "gap" `Quick test_gap;
        ] );
      ( "tie-break",
        [ Alcotest.test_case "conventions" `Quick test_tie_break_conventions ] );
      ( "weighted",
        [
          Alcotest.test_case "tally and plurality" `Quick test_weighted_tally;
          Alcotest.test_case "exactness thresholds" `Quick
            test_weighted_thresholds;
          Alcotest.test_case "expand consistency" `Quick
            test_weighted_expand_consistent;
          Alcotest.test_case "weighted validity" `Quick test_weighted_validity;
        ] );
      ( "validity",
        [
          Alcotest.test_case "voting preference" `Quick test_voting_preference;
          Alcotest.test_case "integrity (Def III.2)" `Quick test_integrity;
          Alcotest.test_case "voting validity (Def III.3)" `Quick
            test_voting_validity;
          Alcotest.test_case "strong validity + agreement" `Quick
            test_strong_validity_and_agreement;
          Alcotest.test_case "delta-differential validity [23]" `Quick
            test_differential_validity;
          Alcotest.test_case "voting implies strong" `Quick
            test_voting_implies_strong;
        ] );
      ( "property",
        [
          Alcotest.test_case "hierarchy shape" `Quick test_property_hierarchy;
          Alcotest.test_case "registry round-trip" `Quick
            test_property_registry;
          Alcotest.test_case "judge" `Quick test_property_judge;
        ] );
      ("properties", qcheck_cases);
    ]
