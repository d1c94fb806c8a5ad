(* Tests for the exhaustive small-model checker (lib/check): state-space
   enumeration counts, scripted-adversary replay, oracle classification,
   counterexample shrinking, jobs-invariance of the checker result, and
   the minimized regression for the engine bug the smoke sweep found. *)

module Space = Vv_check.Space
module Script = Vv_check.Script
module Oracle = Vv_check.Oracle
module Shrink = Vv_check.Shrink
module Check = Vv_check.Check
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Bounds = Vv_core.Bounds
module Bb = Vv_bb.Bb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module Testable = struct
  let script_action =
    Alcotest.testable Strategy.pp_script_action (fun a b ->
        Strategy.(
          match (a, b) with
          | Skip, Skip -> true
          | Vote_all i, Vote_all j -> Int.equal i j
          | Propose_all i, Propose_all j -> Int.equal i j
          | Vote_split (i, j), Vote_split (k, l)
          | Vote_and_propose (i, j), Vote_and_propose (k, l) ->
              Int.equal i k && Int.equal j l
          | _ -> false))

  let kind =
    Alcotest.testable Bounds.pp_kind (fun a b ->
        Bounds.(
          match (a, b) with
          | Bft, Bft | Cft, Cft | Sct, Sct -> true
          | _ -> false))
end

(* --- state space ------------------------------------------------------- *)

let test_profiles () =
  (* Descending partitions of the honest count into <= max_options parts. *)
  Alcotest.(check (list (list int)))
    "partitions of 3 into <= 3 parts"
    [ [ 3 ]; [ 2; 1 ]; [ 1; 1; 1 ] ]
    (Space.profiles ~honest:3 ~max_options:3);
  Alcotest.(check (list (list int)))
    "partitions of 4 into <= 3 parts"
    [ [ 4 ]; [ 3; 1 ]; [ 2; 2 ]; [ 2; 1; 1 ] ]
    (Space.profiles ~honest:4 ~max_options:3);
  Alcotest.(check (list (list int)))
    "max_options truncates"
    [ [ 5 ]; [ 4; 1 ]; [ 3; 2 ] ]
    (Space.profiles ~honest:5 ~max_options:2)

let test_alphabet_sizes () =
  (* 1 Skip + d votes + d proposes + d^2 vote-and-proposes
     (+ d^2 - d ordered distinct splits under point-to-point). *)
  check_int "d=1 no split" 4
    (List.length (Script.alphabet ~options:1 ~allow_split:false));
  check_int "d=2 no split" 9
    (List.length (Script.alphabet ~options:2 ~allow_split:false));
  check_int "d=2 split" 11
    (List.length (Script.alphabet ~options:2 ~allow_split:true));
  check_int "d=3 split" 22
    (List.length (Script.alphabet ~options:3 ~allow_split:true));
  let alphabet = Script.alphabet ~options:2 ~allow_split:true in
  check_int "count = |alphabet|^rounds" 121 (Script.count ~rounds:2 ~alphabet);
  check_int "all materialises count" 121
    (List.length (Script.all ~rounds:2 ~alphabet))

let test_smoke_space_counts () =
  (* Pin the smoke tier's enumeration: any drift here is a deliberate
     re-budgeting, not an accident (the CI wall-clock depends on it). *)
  let dims = Check.dims_of Check.Smoke in
  let cells = Space.cells dims in
  check_int "smoke cells" 835 (List.length cells);
  check_int "smoke executions" 12608 (Array.length (Space.executions dims));
  (* Crash cells carry exactly the empty script: the crash plan is the
     whole fault, there is no Byzantine script to enumerate. *)
  List.iter
    (fun (c : Space.cell) ->
      match c.Space.fault with
      | Space.Crash_one _ ->
          Alcotest.(check (list (list Testable.script_action)))
            "crash cell scripts" [ [] ]
            (Space.scripts_of dims c)
      | Space.Byzantine _ -> ())
    cells

(* --- scripted replay --------------------------------------------------- *)

let byz_cell ?(protocol = Runner.Algo1) ?(profile = [ 2; 1 ]) () =
  {
    Space.protocol;
    bb = Bb.Dolev_strong;
    n = 4;
    t = 1;
    profile;
    fault = Space.Byzantine 1;
  }

let test_replay_deterministic () =
  (* Scripted adversaries are stateful, so [spec_of] must rebuild one per
     run: classifying the same execution twice must agree. *)
  let e =
    {
      Space.cell = byz_cell ();
      script = [ Strategy.Skip; Strategy.Vote_all 1 ];
    }
  in
  check_bool "same class on re-run" true
    (Oracle.equal_class (Oracle.classify_run e) (Oracle.classify_run e))

(* --- oracle ------------------------------------------------------------ *)

let test_oracle_above_bound_exact () =
  (* Unanimous honest profile: B_G = C_G = 0, bound = max(3t, 2t) = 3 < 4,
     so every script must leave Algorithm 1 exact. *)
  let cell = byz_cell ~profile:[ 3 ] () in
  check_bool "bound holds" true (Oracle.bound_holds cell);
  check_bool "expected exact" true (Oracle.expected_exact cell);
  let e =
    { Space.cell; script = [ Strategy.Vote_and_propose (0, 0) ] }
  in
  check_string "class" "exact" (Oracle.class_label (Oracle.classify_run e))

let test_oracle_below_bound_defeated () =
  (* [2,1] at n=4, t=1: validity bound 2t + 2B_G + C_G = 4, n = 4 not
     above it — the smoke tier's shrunk BFT tightness witness. *)
  let cell = byz_cell () in
  check_bool "bound fails" false (Oracle.bound_holds cell);
  let e = { Space.cell; script = [ Strategy.Skip; Strategy.Vote_all 1 ] } in
  let class_ = Oracle.classify_run e in
  check_string "class" "defeated" (Oracle.class_label class_);
  check_bool "witnesses BFT tightness" true (Oracle.witnesses_tightness e class_)

let test_oracle_sct_below_bound_never_violates () =
  (* Safety-guaranteed kind: below the bound every script yields Exact or
     an admissible stall — a wrong decision would be a violation. *)
  let cell = byz_cell ~protocol:Runner.Algo2_sct () in
  check_bool "bound fails" false (Oracle.bound_holds cell);
  let dims = Check.dims_of Check.Smoke in
  List.iter
    (fun script ->
      match Oracle.classify_run { Space.cell; script } with
      | Oracle.Exact | Oracle.Admissible_stall -> ()
      | Oracle.Defeated | Oracle.Violation _ ->
          Alcotest.failf "SCT safety broken by %a" Script.pp script)
    (Space.scripts_of dims cell)

let test_engine_multi_broadcast_regression () =
  (* Minimized regression for the bug the first smoke sweep found: under
     local broadcast, [Vote_and_propose] makes two *distinct but uniform*
     broadcasts in one round, which the engine's validator used to reject
     as equivocation — 1129 spurious invalid-adversary violations.  The
     class must now be a genuine outcome, never Violation. *)
  let cell = byz_cell ~protocol:Runner.Algo4_local () in
  let e =
    { Space.cell; script = [ Strategy.Vote_and_propose (0, 1) ] }
  in
  match Oracle.classify_run e with
  | Oracle.Violation v ->
      Alcotest.failf "multi-broadcast script rejected: %s"
        (Oracle.violation_label v)
  | Oracle.Exact | Oracle.Admissible_stall | Oracle.Defeated -> ()

(* --- shrinking --------------------------------------------------------- *)

let test_shrink_preserves_class_and_simplifies () =
  let e =
    {
      Space.cell = byz_cell ();
      script = [ Strategy.Vote_all 1; Strategy.Vote_all 1 ];
    }
  in
  let target = Oracle.classify_run e in
  check_string "starts defeated" "defeated" (Oracle.class_label target);
  let r = Shrink.shrink e target in
  check_bool "still defeated" true
    (Oracle.equal_class target (Oracle.classify_run r.Shrink.execution));
  check_bool "reached a fixpoint" true r.Shrink.minimal;
  check_bool "no larger than original" true
    (List.length r.Shrink.execution.Space.script <= List.length e.Space.script
     && r.Shrink.execution.Space.cell.Space.n <= e.Space.cell.Space.n);
  (* 1-minimality: no single move still classifies the same. *)
  List.iter
    (fun m ->
      check_bool "no move preserves the class" false
        (Oracle.equal_class target (Oracle.classify_run m)))
    (Shrink.moves r.Shrink.execution)

let test_shrink_moves_shrink () =
  (* Every candidate move strictly simplifies along some axis; in
     particular none grows the script or the system size. *)
  let e =
    {
      Space.cell = byz_cell ~profile:[ 2; 1 ] ();
      script = [ Strategy.Vote_split (0, 1); Strategy.Vote_all 1 ];
    }
  in
  let weight (x : Space.execution) =
    x.Space.cell.Space.n
    + List.length x.Space.cell.Space.profile
    + List.length
        (List.filter (fun a -> a <> Strategy.Skip) x.Space.script)
    + List.length x.Space.script
  in
  List.iter
    (fun m -> check_bool "move simplifies" true (weight m < weight e))
    (Shrink.moves e)

(* --- whole-checker runs ------------------------------------------------ *)

(* A checker result built the way [Report.campaign] builds it: classify
   every enumerated execution (fanned out over [jobs] domains), then fold
   the classes with [Check.aggregate]. *)
let check_result ~jobs profile =
  let execs = Space.executions (Check.dims_of profile) in
  let classes =
    Vv_exec.Executor.map ~jobs ~count:(Array.length execs) (fun i ->
        Oracle.classify_run execs.(i))
  in
  Check.aggregate profile ~execs ~classes

let smoke_result = lazy (check_result ~jobs:1 Check.Smoke)

let test_smoke_certifies () =
  let r = Lazy.force smoke_result in
  check_bool "ok" true r.Check.ok;
  check_int "no violations" 0 r.Check.violations_total;
  check_int "cells" 835 r.Check.total_cells;
  check_int "runs" 12608 r.Check.total_runs;
  check_int "six protocol groups" 6 (List.length r.Check.groups);
  List.iter
    (fun (g : Check.group_stats) ->
      check_int
        (Fmt.str "%s accounted" (Runner.protocol_label g.Check.protocol))
        g.Check.runs
        (g.Check.exact + g.Check.stall_admissible + g.Check.defeated
       + g.Check.violations))
    r.Check.groups

let test_smoke_tightness_per_kind () =
  let r = Lazy.force smoke_result in
  let kinds =
    List.map (fun (t : Check.tightness) -> t.Check.kind) r.Check.tightness
  in
  Alcotest.(check (list Testable.kind))
    "one row per kind" [ Bounds.Bft; Bounds.Cft; Bounds.Sct ] kinds;
  List.iter
    (fun (t : Check.tightness) ->
      check_bool "witness found" true (Option.is_some t.Check.witness);
      check_bool "witnessed cells > 0" true (t.Check.witnessed_cells > 0);
      check_bool "below-bound cells exist" true (t.Check.below_bound_cells > 0))
    r.Check.tightness

let test_jobs_invariance () =
  (* The CLI-level guarantee is byte-identical output at any --jobs; at
     the library level compare everything the report renders.  jobs=0 is
     the CLI default; jobs=3 runs three domains on any host. *)
  let r1 = Lazy.force smoke_result in
  List.iter
    (fun jobs ->
      let r0 = check_result ~jobs Check.Smoke in
      check_bool "groups identical" true (r1.Check.groups = r0.Check.groups);
      check_int "violations identical" r1.Check.violations_total
        r0.Check.violations_total;
      check_bool "ok identical" true (r1.Check.ok = r0.Check.ok);
      List.iter2
        (fun (a : Check.tightness) (b : Check.tightness) ->
          check_int "below-bound cells" a.Check.below_bound_cells
            b.Check.below_bound_cells;
          check_int "witnessed cells" a.Check.witnessed_cells
            b.Check.witnessed_cells;
          check_int "below-bound runs" a.Check.below_bound_runs
            b.Check.below_bound_runs;
          check_string "same shrunk witness"
            (Fmt.str "%a"
               Fmt.(option (using (fun (c : Check.counterexample) ->
                        c.Check.shrunk.Shrink.execution) Space.pp_execution))
               a.Check.witness)
            (Fmt.str "%a"
               Fmt.(option (using (fun (c : Check.counterexample) ->
                        c.Check.shrunk.Shrink.execution) Space.pp_execution))
               b.Check.witness))
        r1.Check.tightness r0.Check.tightness)
    [ 0; 3 ]

(* --- prefix sharing ------------------------------------------------------ *)

(* [Runner.run_checked] resumes scripted specs from a one-entry memo of
   their shared prefix.  Against the unmemoized path, on sequences that
   both hit the memo (consecutive scripts of one cell, in shuffled order)
   and miss it (a jump to another cell, or a spec differing from the
   memo's key in exactly one non-strategy field). *)

let smoke_execs = lazy (Space.executions Space.smoke)
let full_execs = lazy (Space.executions Space.full)

(* The spec with one non-strategy field changed. *)
let respec ?inputs ?protocol ?bb ?tie ?delay ?network ?retransmit ?seed
    ?max_rounds ?subject ?speaker ?judgment_override (s : Runner.spec) =
  let ( |? ) o d = Option.value o ~default:d in
  let ( |?? ) o d = match o with Some _ -> o | None -> d in
  Runner.spec ~byzantine:s.Runner.byzantine ~crash:s.Runner.crash
    ~protocol:(protocol |? s.Runner.protocol)
    ~bb:(bb |? s.Runner.bb) ~strategy:s.Runner.strategy
    ~tie:(tie |? s.Runner.tie)
    ~delay:(delay |? s.Runner.delay)
    ~network:(network |? s.Runner.network)
    ?retransmit:(retransmit |?? s.Runner.retransmit)
    ~seed:(seed |? s.Runner.seed)
    ~max_rounds:(max_rounds |? s.Runner.max_rounds)
    ~subject:(subject |? s.Runner.subject)
    ~speaker:(speaker |? s.Runner.speaker)
    ?judgment_override:(judgment_override |?? s.Runner.judgment_override)
    ~n:s.Runner.n ~t:s.Runner.t
    (inputs |? s.Runner.inputs)

let one_field_changes =
  let o = Vv_ballot.Option_id.of_int in
  [
    (fun s -> respec ~seed:(s.Runner.seed + 1) s);
    (fun s -> respec ~max_rounds:8 s);
    (fun s -> respec ~subject:2 s);
    (fun s -> respec ~speaker:1 s);
    (fun s -> respec ~tie:Vv_ballot.Tie_break.Prefer_smaller s);
    (fun s -> respec ~delay:(Vv_sim.Delay.Uniform { lo = 2; hi = 2 }) s);
    (fun s -> respec ~network:(Vv_sim.Network.make ~drop:0.2 ~seed:3 ()) s);
    (fun s -> respec ~retransmit:(Vv_sim.Retransmit.make ()) s);
    (fun s -> respec ~judgment_override:Vv_core.Variant.Delta_t s);
    (fun s -> respec ~inputs:(o 2 :: List.tl s.Runner.inputs) s);
    (fun s ->
      respec
        ~bb:(match s.Runner.bb with Bb.Eig -> Bb.Phase_king | _ -> Bb.Eig)
        s);
    (fun s ->
      respec
        ~protocol:
          (match s.Runner.protocol with
          | Runner.Algo1 -> Runner.Algo3_incremental
          | Runner.Algo3_incremental -> Runner.Algo1
          | Runner.Algo2_sct -> Runner.Sct_incremental
          | Runner.Sct_incremental -> Runner.Algo2_sct
          | Runner.Algo4_local -> Runner.Algo4_local
          | Runner.Cft -> Runner.Cft)
        s);
  ]

(* Windows of consecutive executions from either tier, scripts shuffled
   within a window; after any spec, possibly a one-field change of it and
   the spec again. *)
let gen_sequence =
  QCheck.Gen.(
    let window =
      let* full = bool in
      let execs = Lazy.force (if full then full_execs else smoke_execs) in
      let* start = int_bound (Array.length execs - 1) in
      let* len = int_range 1 8 in
      let len = min len (Array.length execs - start) in
      shuffle_l
        (List.init len (fun i -> Space.spec_of execs.(start + i)))
    in
    let with_changes s =
      let* change = int_bound (3 * List.length one_field_changes) in
      return
        (match List.nth_opt one_field_changes change with
        | Some f -> [ s; f s; s ]
        | None -> [ s ])
    in
    let* windows = list_size (int_range 1 5) window in
    let* specs = flatten_l (List.map with_changes (List.concat windows)) in
    return (List.concat specs))

let pp_spec ppf (s : Runner.spec) =
  Fmt.pf ppf "%s/%s n=%d t=%d seed=%d rounds=%d %a"
    (Runner.protocol_label s.Runner.protocol)
    (Bb.name s.Runner.bb) s.Runner.n s.Runner.t s.Runner.seed
    s.Runner.max_rounds Strategy.pp s.Runner.strategy

let prop_shared_equals_unshared =
  QCheck.Test.make ~count:60
    ~name:"run_checked (shared prefix) = unshared, trace included"
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_spec))
       gen_sequence)
    (List.for_all (fun s ->
         Runner.run_checked s = Runner.run_checked_unshared s))

let pp_result ppf = function
  | Ok (o : Runner.outcome) ->
      Fmt.pf ppf "%s in %d rounds" o.Runner.trace.Vv_sim.Trace.adversary
        o.Runner.rounds
  | Error (`Invalid_adversary reason) -> Fmt.pf ppf "rejected: %s" reason

(* Each spec through the shared path, in the given order, against its
   unshared run; [want] memoises the unshared runs across orders. *)
let check_specs what ?(want = Hashtbl.create 0) specs =
  let mismatches = ref 0 in
  List.iter
    (fun (s : Runner.spec) ->
      let w =
        match Hashtbl.find_opt want s.Runner.strategy with
        | Some w -> w
        | None -> Runner.run_checked_unshared s
      in
      let got = Runner.run_checked s in
      if got <> w then begin
        incr mismatches;
        if !mismatches <= 3 then
          Fmt.epr "%s: %a: shared %a, unshared %a@." what pp_spec s pp_result
            got pp_result w
      end)
    specs;
  check_int (what ^ ": mismatches") 0 !mismatches

(* Every full-tier execution, in the sweep's order: each cell's scripts
   walk its checkpoint path as the sweep does. *)
let test_full_tier_in_order () =
  check_specs "full tier"
    (Array.to_list (Array.map Space.spec_of (Lazy.force full_execs)))

(* Three scripted rounds, one level deeper than either tier: every
   script on each 2-option n=4 Byzantine cell of the full tier (12
   point-to-point cells of 11^3 scripts, algo4-local's 9^3), in
   lexicographic order and then shuffled within the cell. *)
let test_depth_three () =
  let dims = { Space.full with Space.script_rounds = 3 } in
  let cells =
    List.filter
      (fun (c : Space.cell) ->
        c.Space.n = 4
        && List.length c.Space.profile = 2
        && match c.Space.fault with
           | Space.Byzantine _ -> true
           | Space.Crash_one _ -> false)
      (Space.cells dims)
  in
  check_int "cells" 13 (List.length cells);
  let rng = Random.State.make [| 18 |] in
  let total = ref 0 in
  List.iter
    (fun (cell : Space.cell) ->
      let specs =
        List.map
          (fun script -> Space.spec_of { Space.cell; script })
          (Space.scripts_of dims cell)
      in
      total := !total + List.length specs;
      let what = Fmt.str "%a" Space.pp_cell cell in
      let want = Hashtbl.create 2048 in
      List.iter
        (fun (s : Runner.spec) ->
          Hashtbl.replace want s.Runner.strategy (Runner.run_checked_unshared s))
        specs;
      check_specs (what ^ ", in order") ~want specs;
      let shuffled =
        List.map snd
          (List.sort
             (fun (a, _) (b, _) -> Int.compare a b)
             (List.map (fun s -> (Random.State.bits rng, s)) specs))
      in
      check_specs (what ^ ", shuffled") ~want shuffled)
    cells;
  check_int "scripts" 16_701 !total

(* A level that ends the run hands its result to every script below it:
   a first action the engine rejects, and a round budget whose last round
   is the trigger round or the one after it. *)
let test_early_exits () =
  let alphabet = Script.alphabet ~options:2 ~allow_split:true in
  let below first =
    List.concat_map
      (fun a -> [ first; a ] :: List.map (fun b -> [ first; a; b ]) alphabet)
      alphabet
  in
  let spec_of cell script = Space.spec_of { Space.cell; script } in
  (* local broadcast rejects the equivocating vote at the trigger round *)
  let local = byz_cell ~protocol:Runner.Algo4_local () in
  let specs = List.map (spec_of local) (below (Strategy.Vote_split (0, 1))) in
  check_specs "rejected first action" specs;
  List.iter
    (fun s ->
      check_bool "rejected" true (Result.is_error (Runner.run_checked s)))
    specs;
  (* the trigger round: the one where a first action injects *)
  let cell = byz_cell () in
  let trigger =
    match Runner.run_checked_unshared (spec_of cell [ Strategy.Vote_all 0 ]) with
    | Ok o ->
        (List.find
           (fun (r : Vv_sim.Trace.round_record) -> r.Vv_sim.Trace.byz_sent > 0)
           o.Runner.trace.Vv_sim.Trace.rounds)
          .Vv_sim.Trace.round
    | Error _ -> Alcotest.fail "Vote_all rejected"
  in
  List.iter
    (fun extra ->
      let max_rounds = trigger + extra in
      let specs =
        List.concat_map
          (fun first ->
            List.map (fun s -> respec ~max_rounds (spec_of cell s)) (below first))
          alphabet
      in
      check_specs (Fmt.str "budget of trigger round + %d" extra) specs;
      List.iter
        (fun s ->
          match Runner.run_checked s with
          | Ok o -> check_int "ran out the budget" max_rounds o.Runner.rounds
          | Error _ -> Alcotest.fail "rejected")
        specs)
    [ 1; 2 ]

(* --- per-cell facts ---------------------------------------------------- *)

(* [Oracle.bound_holds] remembers the last cell's bound regime per
   domain, and [Check.aggregate] looks each cell up once per run of its
   executions.  The sweep presents a cell's executions consecutively;
   in any other order both must still be exact. *)
let full_outcomes =
  lazy
    (Array.map
       (fun e -> Runner.run_checked (Space.spec_of e))
       (Lazy.force full_execs))

let permutation n seed =
  let rng = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let test_classify_shuffled () =
  let execs = Lazy.force full_execs and outcomes = Lazy.force full_outcomes in
  let n = Array.length execs in
  let perm = permutation n 19 in
  let direct (cell : Space.cell) =
    Bounds.satisfied_for
      (Oracle.kind_of cell.Space.protocol)
      ~tie:Vv_ballot.Tie_break.default ~n:cell.Space.n ~t:cell.Space.t
      (Space.honest_inputs cell)
  in
  let wrong_bounds = ref 0 in
  Array.iter
    (fun i ->
      let cell = execs.(i).Space.cell in
      if Oracle.bound_holds cell <> direct cell then incr wrong_bounds)
    perm;
  check_int "bound_holds in shuffled order = direct" 0 !wrong_bounds;
  List.iter
    (fun property ->
      let classify i = Oracle.classify ~property execs.(i) outcomes.(i) in
      let in_order = Array.init n classify in
      let shuffled = Array.make n Oracle.Exact in
      Array.iter (fun i -> shuffled.(i) <- classify i) perm;
      let mismatches = ref 0 in
      Array.iteri
        (fun i c ->
          if not (Oracle.equal_class c shuffled.(i)) then incr mismatches)
        in_order;
      check_int
        (Vv_ballot.Property.id property ^ ": shuffled classes differ")
        0 !mismatches)
    Vv_ballot.Property.all

(* Group counts and witnessed-cell counts do not depend on the order the
   executions arrive in (only the first witness may); the witnessed
   counts also equal a direct count of distinct witnessed cells. *)
let test_aggregate_shuffled () =
  let execs = Lazy.force full_execs and outcomes = Lazy.force full_outcomes in
  let n = Array.length execs in
  let classes = Array.init n (fun i -> Oracle.classify execs.(i) outcomes.(i)) in
  let perm = permutation n 20 in
  let aggregate execs classes =
    Check.aggregate ~max_shrink_trials:20 Check.Full ~execs ~classes
  in
  let r = aggregate execs classes in
  let r' =
    aggregate
      (Array.map (fun i -> execs.(i)) perm)
      (Array.map (fun i -> classes.(i)) perm)
  in
  check_bool "groups" true (r.Check.groups = r'.Check.groups);
  check_int "runs" r.Check.total_runs r'.Check.total_runs;
  check_int "cells" r.Check.total_cells r'.Check.total_cells;
  check_int "violations" r.Check.violations_total r'.Check.violations_total;
  check_bool "ok" r.Check.ok r'.Check.ok;
  List.iter2
    (fun (a : Check.tightness) (b : Check.tightness) ->
      let what = Fmt.str "%a" Bounds.pp_kind a.Check.kind in
      Alcotest.check Testable.kind (what ^ ": kind") a.Check.kind b.Check.kind;
      check_int (what ^ ": below-bound cells") a.Check.below_bound_cells
        b.Check.below_bound_cells;
      check_int (what ^ ": below-bound runs") a.Check.below_bound_runs
        b.Check.below_bound_runs;
      check_int (what ^ ": witnessed cells, shuffled") a.Check.witnessed_cells
        b.Check.witnessed_cells;
      let witnessed =
        List.sort_uniq compare
          (List.filter_map
             (fun i ->
               let e = execs.(i) in
               if
                 Oracle.kind_of e.Space.cell.Space.protocol = a.Check.kind
                 && Oracle.witnesses_tightness e classes.(i)
               then Some e.Space.cell
               else None)
             (List.init n Fun.id))
      in
      check_int (what ^ ": witnessed cells, direct") (List.length witnessed)
        a.Check.witnessed_cells)
    r.Check.tightness r'.Check.tightness

let () =
  Alcotest.run "check"
    [
      ( "space",
        [
          Alcotest.test_case "profiles are bounded partitions" `Quick
            test_profiles;
          Alcotest.test_case "script alphabet sizes" `Quick test_alphabet_sizes;
          Alcotest.test_case "smoke space counts pinned" `Quick
            test_smoke_space_counts;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "scripted replay deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "above bound: exact" `Quick
            test_oracle_above_bound_exact;
          Alcotest.test_case "below bound: defeated witness" `Quick
            test_oracle_below_bound_defeated;
          Alcotest.test_case "SCT never violates safety below bound" `Quick
            test_oracle_sct_below_bound_never_violates;
          Alcotest.test_case
            "engine accepts two distinct local broadcasts (regression)" `Quick
            test_engine_multi_broadcast_regression;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "preserves class, 1-minimal" `Quick
            test_shrink_preserves_class_and_simplifies;
          Alcotest.test_case "moves only simplify" `Quick
            test_shrink_moves_shrink;
        ] );
      ( "checker",
        [
          Alcotest.test_case "smoke certifies all variants" `Quick
            test_smoke_certifies;
          Alcotest.test_case "tightness witnessed per kind" `Quick
            test_smoke_tightness_per_kind;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
        ] );
      ( "prefix",
        [
          QCheck_alcotest.to_alcotest prop_shared_equals_unshared;
          Alcotest.test_case "full tier in order = unshared" `Quick
            test_full_tier_in_order;
          Alcotest.test_case "three rounds, n=4 two options = unshared" `Quick
            test_depth_three;
          Alcotest.test_case "early exits at a level = unshared" `Quick
            test_early_exits;
        ] );
      ( "cells",
        [
          Alcotest.test_case "classify, full tier shuffled = in order" `Quick
            test_classify_shuffled;
          Alcotest.test_case "aggregate, full tier shuffled = in order" `Quick
            test_aggregate_shuffled;
        ] );
    ]
