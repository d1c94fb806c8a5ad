(* Golden regression tests: small, fully deterministic experiment tables
   pinned as CSV.  Any behavioural drift in the protocols, the bounds
   arithmetic or the probability kernels shows up here as a diff.  The
   JSON formats are pinned from files: a decision log, its decision
   lines, and one campaign table rendered as JSON. *)

module Table = Vv_prelude.Table

let check_csv name expected (t : Table.t) =
  Alcotest.(check string) name expected (Table.to_csv t)

(* Table [i] of a campaign's default run: the full tier and seed. *)
let table c i =
  List.nth
    (Vv_exec.Campaign.run c).Vv_exec.Campaign.emitted.Vv_exec.Campaign.tables i

let test_fig1a () =
  check_csv "fig1a"
    "profile,p1,p2,p3,p4,H(p),H0 (xN_G)\n\
     D1,0.70,0.10,0.10,0.10,1.3568,13.57\n\
     D2,0.55,0.25,0.10,0.10,1.6388,16.39\n\
     D3,0.40,0.30,0.20,0.10,1.8464,18.46\n\
     D4,0.25,0.25,0.25,0.25,2,20\n"
    (table Vv_analysis.Exp_fig1.fig1a_campaign 0)

let test_e5_firing () =
  check_csv "e5a"
    "delta_P,fires after k votes,paper says\n\
     0,7,7 (Section VII-A)\n\
     1,8,-\n"
    (table Vv_analysis.Exp_examples.e5_campaign 0)

let test_e7_theorem10 () =
  check_csv "e7b"
    "t,lax (t-1) violates,strict (t) safe\n\
     1,yes,yes\n\
     2,yes,yes\n\
     3,yes,yes\n"
    (table Vv_analysis.Exp_bounds.e7_campaign 1)

let test_e10_third_option () =
  check_csv "e10b"
    "honest inputs,B_G,C_G,bound (t=3),N,term,valid\n\
     A*9 B*4      (hesitant voters all pick B),4,0,14,16,yes,yes\n\
     \"A*9 B*2 C,D  (two hesitant voters pick third options)\",2,2,12,16,yes,yes\n"
    (table Vv_analysis.Exp_bounds.e10_campaign 1)

let test_e11 () =
  check_csv "e11"
    "delta_P,quorum,decisive: term,decisive: valid,tie attack: term,tie \
     attack: tb-valid\n\
     0,N-t,yes,yes,yes,no\n\
     0,t+1,yes,yes,yes,no\n\
     1,N-t,yes,yes,yes,no\n\
     1,t+1,yes,yes,yes,no\n\
     2,N-t,yes,yes,no,yes\n\
     2,t+1,yes,yes,no,yes\n\
     3,N-t,no,yes,no,yes\n\
     3,t+1,no,yes,no,yes\n\
     4,N-t,no,yes,no,yes\n\
     4,t+1,no,yes,no,yes\n\
     5,N-t,no,yes,no,yes\n\
     5,t+1,no,yes,no,yes\n"
    (table Vv_analysis.Exp_bounds.e11_campaign 0)

(* A pinned end-to-end protocol run: outputs, round and message counts. *)
let test_pinned_run () =
  let r =
    Vv_core.Runner.simple ~protocol:Vv_core.Runner.Algo1
      ~strategy:Vv_core.Strategy.Collude_second ~t:1 ~f:1
      (List.map Vv_ballot.Option_id.of_int [ 0; 0; 0; 0; 0; 1 ])
  in
  (* Every honest node decides in round index 6, so 7 rounds execute
     (rounds_used counts executed rounds — see engine.ml's convention). *)
  Alcotest.(check int) "rounds" 7 r.Vv_core.Runner.rounds;
  Alcotest.(check int) "honest msgs" 126 r.Vv_core.Runner.honest_msgs;
  Alcotest.(check int) "byz msgs" 7 r.Vv_core.Runner.byz_msgs;
  Alcotest.(check (list (option int)))
    "decision rounds"
    (List.init 6 (fun _ -> Some 6))
    r.Vv_core.Runner.decision_rounds

let test_pinned_exact_cell () =
  let dist = Vv_dist.Profiles.(distribution d2) in
  let p = Vv_dist.Exact.pr_voting_validity dist ~t:2 in
  Alcotest.(check (float 1e-10)) "D2 t=2 cell" 0.5582 (Float.round (p *. 1e4) /. 1e4)

(* --- JSON formats --- *)

module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Server = Vv_serve.Server
module Rpc = Vv_serve.Rpc

(* dune runs tests with cwd = the test directory's sandbox, so the pinned
   files are reachable relatively (declared as deps in test/dune). *)
let golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

(* A 40-slot log at batch 4 whose slots decide options 0-3 or nothing,
   after one to three attempts: the E18 configuration with a three-attempt
   retry budget. *)
let log_cfg =
  Ledger.config ~byzantine:[ 7; 8 ]
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 3))
    ~n:9 ~t:2 ~seed:0x5e7e ()

let log_inputs i =
  List.map Vv_ballot.Option_id.of_int
    (match i mod 5 with
    | 0 -> [ 0; 0; 0; 0; 0; 1; 1; 0; 0 ]
    | 1 -> [ 2; 2; 2; 2; 2; 2; 1; 0; 0 ]
    | 2 -> [ 1; 1; 1; 1; 1; 0; 0; 0; 0 ]
    | 3 -> [ 0; 0; 0; 1; 1; 1; 2; 0; 0 ]
    | _ -> [ 3; 3; 3; 3; 0; 1; 2; 0; 0 ])

let log_engine ~jobs =
  let e = Engine.create ~batch:4 ~jobs log_cfg in
  for i = 0 to 39 do
    ignore (Engine.submit e ~subject:(1000 + i) (log_inputs i))
  done;
  ignore (Engine.flush e);
  e

let temp_log () =
  let path = Filename.temp_file "vv_golden" ".log" in
  Sys.remove path;
  path

(* The log [Server.write_log] writes, header and CRCs included, at jobs 1
   and 0; and the pinned file loads back to the same slots. *)
let test_decision_log () =
  let expected = golden "decision_log.jsonl" in
  List.iter
    (fun jobs ->
      let e = log_engine ~jobs in
      let path = temp_log () in
      (match Server.write_log e (Some path) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "write_log: %s" msg);
      let written = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Alcotest.(check string) (Fmt.str "log bytes, jobs=%d" jobs) expected
        written;
      let copy = temp_log () in
      Out_channel.with_open_bin copy (fun oc -> output_string oc expected);
      (match Server.load_engine ~snapshot:(Some copy) log_cfg with
      | Ok loaded ->
          Alcotest.(check bool) "pinned log loads to the same slots" true
            (Engine.decisions loaded = Engine.decisions e)
      | Error msg -> Alcotest.failf "load_engine: %s" msg);
      Sys.remove copy)
    [ 1; 0 ]

(* The decision notification lines a catchup of that log streams. *)
let test_decision_lines () =
  let expected = golden "decision_lines.jsonl" in
  List.iter
    (fun jobs ->
      let slots = Engine.decisions (log_engine ~jobs) in
      let lines = List.map (Rpc.decision ~batch:4) slots in
      Alcotest.(check string) (Fmt.str "lines, jobs=%d" jobs) expected
        (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      Alcotest.(check bool) "lines parse back to the slots" true
        (List.map Rpc.decision_of_line lines
        = List.map Option.some slots))
    [ 1; 0 ]

(* Figure 1(b)'s table as `vvc exp fig1b --format=json` prints it. *)
let test_fig1b_json () =
  let expected = golden "fig1b_0.json" in
  List.iter
    (fun jobs ->
      let outcome =
        Vv_exec.Campaign.run ~profile:Vv_exec.Campaign.Full ~jobs
          Vv_analysis.Exp_fig1.fig1b_campaign
      in
      Alcotest.(check string) (Fmt.str "fig1b json, jobs=%d" jobs) expected
        (Vv_exec.Emit.tables_string Vv_exec.Emit.Json
           outcome.Vv_exec.Campaign.emitted.Vv_exec.Campaign.tables))
    [ 1; 0 ]

let () =
  Alcotest.run "golden"
    [
      ( "tables",
        [
          Alcotest.test_case "fig1a" `Quick test_fig1a;
          Alcotest.test_case "e5 firing point" `Quick test_e5_firing;
          Alcotest.test_case "e7 theorem 10" `Quick test_e7_theorem10;
          Alcotest.test_case "e10 third option" `Quick test_e10_third_option;
          Alcotest.test_case "e11 ablation" `Quick test_e11;
        ] );
      ( "runs",
        [
          Alcotest.test_case "pinned algo1 run" `Quick test_pinned_run;
          Alcotest.test_case "pinned fig1b cell" `Quick test_pinned_exact_cell;
        ] );
      ( "formats",
        [
          Alcotest.test_case "decision log" `Quick test_decision_log;
          Alcotest.test_case "decision lines" `Quick test_decision_lines;
          Alcotest.test_case "fig1b json" `Quick test_fig1b_json;
        ] );
    ]
