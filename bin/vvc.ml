(* vvc — command-line driver for the voting-validity reproduction.

   Subcommands:
     list                        enumerate the experiments (DESIGN.md §4)
     exp <id> [--format=F]       regenerate one figure/experiment
     all                         regenerate everything
     bounds -n N -t T [...]      evaluate every tolerance bound at a point
     run [...]                   one protocol execution with full control
     check [--profile=P]         exhaustive small-model checker (vv_check)
     chaos [--profile=P]         chaos-substrate resilience campaign (E17)
     gst [--profile=P]           network-agnostic validity campaign (E20)
     validity [--profile=P]      validity-hierarchy campaign (E21)
     serve --socket S [...]      multi-shot ledger as a JSON-RPC daemon
     load --socket S [...]       drive a running daemon, report decisions/s

   The campaign subcommands (exp, all, check, chaos, gst, validity) share
   one flag bundle — --format/--profile/--jobs/--seed/--progress/--out —
   parsed in {!Cli}, and check, chaos, gst and validity are each built by
   [campaign_cmd]; the point subcommands (bounds, run, ledger, radio) take
   the shared --format term only. *)

module C = Cmdliner
module Oid = Vv_ballot.Option_id
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Bounds = Vv_core.Bounds
module Table = Vv_prelude.Table
module Json = Vv_prelude.Json
module Emit = Vv_exec.Emit
module Campaign = Vv_exec.Campaign

let format_term = Cli.format_term

(* --- list --- *)

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun c -> Fmt.pr "%-8s %s@." (Campaign.id c) (Campaign.what c))
      Vv_analysis.Experiments.all
  in
  C.Cmd.v (C.Cmd.info "list" ~doc) C.Term.(const run $ const ())

(* --- exp --- *)

let exp_cmd =
  let doc = "Run one experiment campaign and print its table(s)." in
  let campaign =
    let ids =
      List.map (fun c -> (Campaign.id c, c)) Vv_analysis.Experiments.all
    in
    C.Arg.(
      required
      & pos 0 (some (Cli.exact_enum ~what:"experiment" ids)) None
      & info [] ~docv:"ID" ~doc:"Experiment id (see $(b,vvc list)).")
  in
  C.Cmd.v (C.Cmd.info "exp" ~doc)
    C.Term.(
      const (fun c opts -> Cli.handle opts c)
      $ campaign
      $ Cli.opts_term ~default_profile:Campaign.Full)

(* --- all --- *)

let all_cmd =
  let doc = "Run every experiment campaign (the full reproduction harness)." in
  let csv_dir =
    C.Arg.(value
           & opt (some string) None
           & info [ "csv-dir" ]
               ~doc:"Additionally write every table as CSV under this \
                     directory (created if missing).")
  in
  let run (opts : Cli.opts) csv_dir =
    (match csv_dir with
    | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) -> (
        try Unix.mkdir dir 0o755
        with Unix.Unix_error (e, _, _) ->
          Fmt.epr "vvc: cannot create %s: %s@." dir (Unix.error_message e);
          exit 1)
    | _ -> ());
    let write_csvs c tables =
      match csv_dir with
      | None -> ()
      | Some dir ->
          List.iteri
            (fun i t ->
              let path =
                Filename.concat dir (Fmt.str "%s_%d.csv" (Campaign.id c) i)
              in
              match Vv_prelude.Io.write_atomic ~path (Table.to_csv t) with
              | Ok () -> Fmt.epr "[written %s]@." path
              | Error msg ->
                  Fmt.epr "vvc: cannot write %s: %s@." path msg;
                  exit 1)
            tables
    in
    let results =
      List.map
        (fun c ->
          let outcome = Cli.run_campaign opts c in
          let e = outcome.Campaign.emitted in
          write_csvs c e.Campaign.tables;
          (c, e))
        Vv_analysis.Experiments.all
    in
    let report =
      match opts.Cli.format with
      | Emit.Json ->
          (* One top-level array: [{id; what; tables}]. *)
          let objs =
            List.map
              (fun (c, (e : Campaign.emitted)) ->
                Json.Obj
                  [
                    ("id", Json.String (Campaign.id c));
                    ("what", Json.String (Campaign.what c));
                    ( "tables",
                      Json.List (List.map Table.to_json e.Campaign.tables) );
                  ])
              results
          in
          Json.to_string (Json.List objs) ^ "\n"
      | Emit.Table ->
          String.concat ""
            (List.map
               (fun (c, (e : Campaign.emitted)) ->
                 Fmt.str "@.### %s — %s@.@." (Campaign.id c) (Campaign.what c)
                 ^ Emit.tables_string Emit.Table e.Campaign.tables)
               results)
      | Emit.Csv ->
          String.concat ""
            (List.map
               (fun (_, (e : Campaign.emitted)) ->
                 Emit.tables_string Emit.Csv e.Campaign.tables)
               results)
    in
    Cli.output opts report;
    if List.exists (fun (_, (e : Campaign.emitted)) -> not e.Campaign.ok) results
    then exit 1
  in
  C.Cmd.v (C.Cmd.info "all" ~doc)
    C.Term.(const run $ Cli.opts_term ~default_profile:Campaign.Full $ csv_dir)

(* --- bounds --- *)

let bounds_cmd =
  let doc = "Evaluate the paper's tolerance bounds at one parameter point." in
  let count flag = Cli.non_negative_int ~flag in
  let n = C.Arg.(required & opt (some (count "-n")) None & info [ "n" ] ~doc:"Total nodes N.") in
  let t = C.Arg.(required & opt (some (count "-t")) None & info [ "t" ] ~doc:"Tolerance t.") in
  let bg = C.Arg.(value & opt (count "--bg") 0 & info [ "bg" ] ~doc:"Honest runner-up votes B_G.") in
  let cg = C.Arg.(value & opt (count "--cg") 0 & info [ "cg" ] ~doc:"Honest other votes C_G.") in
  let run format n t bg cg =
    let tab =
      Table.create ~title:(Fmt.str "Bounds at N=%d t=%d B_G=%d C_G=%d" n t bg cg)
        ~headers:[ "kind"; "bound (N must exceed)"; "satisfied"; "t_vd"; "required gap" ]
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        ()
    in
    List.iter
      (fun kind ->
        Table.add_row tab
          [
            Fmt.str "%a" Bounds.pp_kind kind;
            Table.icell (Bounds.bound kind ~t ~bg ~cg);
            Table.bcell (Bounds.satisfied kind ~n ~t ~bg ~cg);
            Table.fcell ~decimals:2 (Bounds.vote_dispersion_tolerance kind ~bg ~cg);
            Table.icell (Bounds.required_gap kind ~t);
          ])
      [ Bounds.Bft; Bounds.Cft; Bounds.Sct ];
    Emit.table format tab
  in
  C.Cmd.v (C.Cmd.info "bounds" ~doc)
    C.Term.(const run $ format_term $ n $ t $ bg $ cg)

(* --- run --- *)

let protocol_labels =
  String.concat "|" (List.map Runner.protocol_label Runner.protocols)

let protocol_conv =
  let parse s =
    match Runner.protocol_of_name s with
    | Some p -> Ok p
    | None ->
        Error (`Msg (Fmt.str "unknown protocol %S (one of: %s)" s protocol_labels))
  in
  C.Arg.conv (parse, fun ppf p -> Fmt.string ppf (Runner.protocol_label p))

let protocol_doc = "Protocol: " ^ protocol_labels ^ "."

let strategy_conv =
  let parse s =
    match Strategy.of_name s with
    | Some st -> Ok st
    | None -> Error (`Msg (Fmt.str "unknown strategy %S (one of: %s)" s
                             (String.concat ", " Strategy.all_names)))
  in
  C.Arg.conv (parse, Strategy.pp)

let bb_conv =
  let parse s =
    match Vv_bb.Bb.of_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Fmt.str "unknown substrate %S" s))
  in
  C.Arg.conv (parse, Vv_bb.Bb.pp)

let inputs_conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.map (fun x -> Oid.of_int (int_of_string (String.trim x))))
    with _ -> Error (`Msg "inputs must be a comma-separated list of ints")
  in
  C.Arg.conv (parse, fun ppf l -> Fmt.(list ~sep:comma Oid.pp) ppf l)

let run_cmd =
  let doc = "Execute one consensus instance and report every property." in
  let protocol =
    C.Arg.(value & opt protocol_conv Runner.Algo1
           & info [ "protocol"; "p" ] ~doc:protocol_doc)
  in
  let strategy =
    C.Arg.(value & opt strategy_conv Strategy.Collude_second
           & info [ "strategy"; "s" ]
               ~doc:"Adversary: passive|collude-second|split-top2|propose-second|random.")
  in
  let bb =
    C.Arg.(value & opt bb_conv Vv_bb.Bb.Dolev_strong
           & info [ "bb" ] ~doc:"Phase-1 substrate: dolev-strong|eig|phase-king.")
  in
  let t =
    C.Arg.(value & opt (Cli.non_negative_int ~flag:"-t") 1
           & info [ "t" ] ~doc:"Declared tolerance t.")
  in
  let f =
    C.Arg.(value & opt (some (Cli.non_negative_int ~flag:"-f")) None
           & info [ "f" ] ~doc:"Actual Byzantine count (default t).")
  in
  let inputs =
    C.Arg.(value
           & opt inputs_conv
               (List.map Oid.of_int [ 0; 0; 0; 1; 1; 2; 3 ])
           & info [ "inputs"; "i" ] ~doc:"Honest inputs, e.g. 0,0,0,1.")
  in
  let delay_hi =
    C.Arg.(value & opt (Cli.positive_int ~flag:"--delay") 1
           & info [ "delay" ] ~doc:"Delay bound (1 = synchronous, k = uniform 1..k).")
  in
  let seed = C.Arg.(value & opt int 0x5eed & info [ "seed" ] ~doc:"PRNG seed.") in
  let oid_json o = Json.Int (Oid.to_int o) in
  let run_json protocol strategy ~t ~f ~seed (r : Runner.outcome) =
    Json.Obj
      [
        ( "spec",
          Json.Obj
            [
              ("protocol", Json.String (Runner.protocol_label protocol));
              ("strategy", Json.String (Fmt.str "%a" Strategy.pp strategy));
              ("t", Json.Int t);
              ("f", Json.Int f);
              ("seed", Json.Int seed);
              ( "honest_inputs",
                Json.List
                  (List.map oid_json r.Runner.honest.Vv_ballot.Validity.inputs) );
            ] );
        ( "outcome",
          Json.Obj
            [
              ( "outputs",
                Json.List
                  (List.map
                     (fun o -> Json.of_int_option (Option.map Oid.to_int o))
                     r.Runner.outputs) );
              ("termination", Json.Bool r.Runner.termination);
              ("agreement", Json.Bool r.Runner.agreement);
              ("voting_validity", Json.Bool r.Runner.voting_validity);
              ("voting_validity_tb", Json.Bool r.Runner.voting_validity_tb);
              ("strong_validity", Json.Bool r.Runner.strong_validity);
              ("safety_admissible", Json.Bool r.Runner.safety_admissible);
              ("stalled", Json.Bool r.Runner.stalled);
              ("rounds", Json.Int r.Runner.rounds);
              ("honest_msgs", Json.Int r.Runner.honest_msgs);
              ("byz_msgs", Json.Int r.Runner.byz_msgs);
              ( "decision_rounds",
                Json.List (List.map Json.of_int_option r.Runner.decision_rounds)
              );
            ] );
        ("trace", Vv_sim.Trace.to_json r.Runner.trace);
      ]
  in
  let run protocol strategy bb t f inputs delay_hi seed format =
    let f = Option.value f ~default:t in
    let delay = Vv_sim.Delay.Uniform { lo = 1; hi = delay_hi } in
    let r = Runner.simple ~protocol ~strategy ~bb ~delay ~seed ~t ~f inputs in
    match format with
    | Emit.Json ->
        print_endline
          (Json.to_string (run_json protocol strategy ~t ~f ~seed r))
    | Emit.Csv -> print_string (Vv_sim.Trace.to_csv r.Runner.trace)
    | Emit.Table ->
        let honest = r.Runner.honest.Vv_ballot.Validity.inputs in
        Fmt.pr "protocol     : %s@." (Runner.protocol_label protocol);
        Fmt.pr "adversary    : %a  (f=%d, t=%d)@." Strategy.pp strategy f t;
        Fmt.pr "honest inputs: %a@." Fmt.(list ~sep:sp Oid.pp) honest;
        (match Bounds.decompose ~tie:Vv_ballot.Tie_break.default honest with
        | Some (w, ag, bg, cg) ->
            Fmt.pr "honest tally : plurality=%a A_G=%d B_G=%d C_G=%d@." Oid.pp w
              ag bg cg;
            let n = List.length honest + f in
            Fmt.pr "bounds       : BFT=%b CFT=%b SCT=%b (N=%d)@."
              (Bounds.satisfied Bounds.Bft ~n ~t ~bg ~cg)
              (Bounds.satisfied Bounds.Cft ~n ~t ~bg ~cg)
              (Bounds.satisfied Bounds.Sct ~n ~t ~bg ~cg)
              n
        | None -> ());
        Fmt.pr "outputs      : %a@."
          Fmt.(list ~sep:sp (option ~none:(any "-") Oid.pp))
          r.Runner.outputs;
        Fmt.pr "termination  : %b@." r.Runner.termination;
        Fmt.pr "agreement    : %b@." r.Runner.agreement;
        Fmt.pr "voting valid : %b (tie-break-aware: %b)@."
          r.Runner.voting_validity r.Runner.voting_validity_tb;
        Fmt.pr "strong valid : %b@." r.Runner.strong_validity;
        Fmt.pr "safety adm.  : %b@." r.Runner.safety_admissible;
        Fmt.pr "rounds       : %d (stalled: %b)@." r.Runner.rounds
          r.Runner.stalled;
        Fmt.pr "messages     : honest=%d byzantine=%d@." r.Runner.honest_msgs
          r.Runner.byz_msgs
  in
  C.Cmd.v (C.Cmd.info "run" ~doc)
    C.Term.(
      const run $ protocol $ strategy $ bb $ t $ f $ inputs $ delay_hi $ seed
      $ format_term)

(* --- ledger --- *)

(* [sized ~n ~t run] runs [run] once the sizes meet what Ledger.config
   and the multishot Engine.create require (with the last [t] nodes
   Byzantine); a bad size is a usage error (exit 124) found before
   anything is bound, not an uncaught Invalid_argument. *)
let sized ?(batch = 1) ?(jobs = 0) ~n ~t run =
  let usage fmt = Fmt.kstr (fun msg -> `Error (true, msg)) fmt in
  if n < 1 then usage "-n must be at least 1, not %d" n
  else if t < 0 || t > n then
    usage "-t must be between 0 and -n (%d), not %d" n t
  else if batch < 1 then usage "--batch must be at least 1, not %d" batch
  else if jobs < 0 then usage "--jobs must be non-negative, not %d" jobs
  else `Ok (run ())

let ledger_cmd =
  let doc = "Run a multi-shot voting ledger over random slot electorates." in
  let n = C.Arg.(value & opt int 9 & info [ "n" ] ~doc:"Total nodes.") in
  let t = C.Arg.(value & opt int 2 & info [ "t" ] ~doc:"Tolerance (the last t nodes are Byzantine).") in
  let slots =
    C.Arg.(value & opt (Cli.positive_int ~flag:"--slots") 6
           & info [ "slots" ] ~doc:"Number of subjects to decide (at least 1).")
  in
  let seed = C.Arg.(value & opt int 0x1ed9 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run format n t slots seed =
    let byzantine = List.init t (fun i -> n - 1 - i) in
    let cfg =
      Vv_multishot.Ledger.config ~byzantine
        ~retry:(Vv_multishot.Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
        ~seed ~n ~t ()
    in
    let rng = Vv_prelude.Rng.create (seed + 1) in
    let dist =
      Vv_dist.Multinomial.create ~n:(n - t) ~p:[| 0.5; 0.3; 0.2 |]
    in
    let requests =
      List.init slots (fun i ->
          let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
          (i + 1, honest @ List.init t (fun _ -> Oid.of_int 0)))
    in
    let decided, stats = Vv_multishot.Engine.run cfg requests in
    if format = Emit.Table then
      List.iter (Fmt.pr "%a@." Vv_multishot.Ledger.pp_slot) decided;
    let tab =
      Table.create ~title:(Fmt.str "ledger n=%d t=%d seed=%#x" n t seed)
        ~headers:
          [ "slot"; "subject"; "decision"; "speaker"; "attempts"; "valid";
            "rounds" ]
        ~aligns:
          [ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right;
            Table.Right; Table.Right ]
        ()
    in
    List.iter
      (fun (s : Vv_multishot.Ledger.slot) ->
        Table.add_row tab
          [
            Table.icell s.Vv_multishot.Ledger.index;
            Table.icell s.Vv_multishot.Ledger.subject;
            (match s.Vv_multishot.Ledger.decision with
            | Some o -> Oid.to_string o
            | None -> "-");
            Table.icell s.Vv_multishot.Ledger.speaker;
            Table.icell s.Vv_multishot.Ledger.attempts;
            Table.bcell s.Vv_multishot.Ledger.valid;
            Table.icell s.Vv_multishot.Ledger.rounds_total;
          ])
      decided;
    let { Vv_multishot.Engine.decided = height; committed; all_valid; _ } =
      stats
    in
    (match format with
    | Emit.Table -> ()
    | Emit.Csv -> print_string (Table.to_csv tab)
    | Emit.Json ->
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("slots", Table.to_json tab);
                  ("height", Json.Int height);
                  ("committed", Json.Int committed);
                  ("all_committed_valid", Json.Bool all_valid);
                ])));
    if format = Emit.Table then
      Fmt.pr "@.height=%d committed=%d all-committed-valid=%b@." height
        committed all_valid
  in
  let checked format n t slots seed =
    sized ~n ~t (fun () -> run format n t slots seed)
  in
  C.Cmd.v (C.Cmd.info "ledger" ~doc)
    C.Term.(ret (const checked $ format_term $ n $ t $ slots $ seed))

(* --- radio --- *)

(* A radio vote needs a connected graph of at least two nodes (one hop),
   so a size the constructors refuse, a single node, a disconnected graph
   and a non-number are usage errors (exit 124), not exceptions raised
   from inside the run. *)
let topology_conv =
  let module Topology = Vv_radio.Topology in
  let ( let* ) = Result.bind in
  let error fmt = Fmt.kstr (fun msg -> Error (`Msg msg)) fmt in
  let size s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> error "topology: size %S must be a positive integer" s
  in
  let parse s =
    let* topo =
      match String.split_on_char ':' s with
      | [ "complete"; n ] -> Result.map Topology.complete (size n)
      | [ "ring"; n ] -> Result.map (Topology.ring ~k:1) (size n)
      | [ "ring2"; n ] -> Result.map (Topology.ring ~k:2) (size n)
      | [ "grid"; w; h ] ->
          let* w = size w in
          let* h = size h in
          Ok (Topology.grid ~w ~h)
      | [ "geo"; n; r ] -> (
          let* n = size n in
          match float_of_string_opt r with
          | Some radius when radius > 0.0 ->
              Ok (Topology.random_geometric ~n ~radius ~seed:7)
          | Some _ | None -> error "topology: radius %S must be a positive number" r)
      | _ -> error "topology: complete:N | ring:N | ring2:N | grid:W:H | geo:N:R"
    in
    if Topology.size topo < 2 then
      error "topology %S has one node; a radio vote needs at least two" s
    else if not (Topology.connected topo) then
      error "topology %S is disconnected" s
    else Ok topo
  in
  C.Arg.conv (parse, fun ppf t -> Fmt.pf ppf "<topology of %d>" (Topology.size t))

let radio_cmd =
  let doc = "One multi-hop radio vote on a chosen topology." in
  let topo =
    C.Arg.(value & opt topology_conv (Vv_radio.Topology.ring ~k:2 9)
           & info [ "topology" ] ~doc:"complete:N | ring:N | ring2:N | grid:W:H | geo:N:R.")
  in
  let t =
    C.Arg.(value & opt (Cli.non_negative_int ~flag:"-t") 1
           & info [ "t" ] ~doc:"Tolerance; the last t nodes are Byzantine.")
  in
  let run format topo t =
    let n = Vv_radio.Topology.size topo in
    let byzantine = List.init t (fun i -> n - 1 - i) in
    let inputs =
      List.init n (fun i -> Oid.of_int (if i mod 4 = 3 then 1 else 0))
    in
    let r =
      Vv_radio.Radio_runner.run ~topology:topo ~t ~byzantine inputs
    in
    match format with
    | Emit.Json ->
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("n", Json.Int n);
                  ("diameter", Json.Int (Vv_radio.Topology.diameter topo));
                  ("t", Json.Int t);
                  ( "outputs",
                    Json.List
                      (List.map
                         (fun o -> Json.of_int_option (Option.map Oid.to_int o))
                         r.Vv_radio.Radio_runner.outputs) );
                  ("termination", Json.Bool r.Vv_radio.Radio_runner.termination);
                  ("agreement", Json.Bool r.Vv_radio.Radio_runner.agreement);
                  ( "voting_validity",
                    Json.Bool r.Vv_radio.Radio_runner.voting_validity );
                  ("rounds", Json.Int r.Vv_radio.Radio_runner.rounds);
                  ("messages", Json.Int r.Vv_radio.Radio_runner.messages);
                  ("trace", Vv_sim.Trace.to_json r.Vv_radio.Radio_runner.trace);
                ]))
    | Emit.Csv ->
        print_string (Vv_sim.Trace.to_csv r.Vv_radio.Radio_runner.trace)
    | Emit.Table ->
        Fmt.pr "topology     : %d nodes, diameter %d, min degree %d@." n
          (Vv_radio.Topology.diameter topo)
          (Vv_radio.Topology.min_degree topo);
        Fmt.pr "outputs      : %a@."
          Fmt.(list ~sep:sp (option ~none:(any "-") Oid.pp))
          r.Vv_radio.Radio_runner.outputs;
        Fmt.pr "termination=%b agreement=%b validity=%b rounds=%d messages=%d@."
          r.Vv_radio.Radio_runner.termination r.Vv_radio.Radio_runner.agreement
          r.Vv_radio.Radio_runner.voting_validity r.Vv_radio.Radio_runner.rounds
          r.Vv_radio.Radio_runner.messages
  in
  let checked format topo t =
    let n = Vv_radio.Topology.size topo in
    if t >= n then
      `Error
        ( true,
          Fmt.str
            "-t must be below the topology's %d nodes, not %d: a vote needs \
             at least one honest node"
            n t )
    else `Ok (run format topo t)
  in
  C.Cmd.v (C.Cmd.info "radio" ~doc)
    C.Term.(ret (const checked $ format_term $ topo $ t))

(* --- check, chaos, gst, validity --- *)

(* A campaign subcommand: [campaign] builds the campaign from the
   subcommand's own flags, and it runs under the shared flag bundle at the
   smoke tier by default. *)
let campaign_cmd name ~doc campaign =
  C.Cmd.v (C.Cmd.info name ~doc)
    C.Term.(
      const Cli.handle $ Cli.opts_term ~default_profile:Campaign.Smoke
      $ campaign)

let validity_list_conv =
  let module Property = Vv_ballot.Property in
  let parse s =
    let names =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let names = if List.mem "all" names then Property.names else names in
    let choices = String.concat ", " Property.names in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Property.find n with
          | Some p -> resolve (p :: acc) rest
          | None ->
              Error
                (`Msg
                   (Fmt.str "unknown validity %S (one of: %s, or all)" n
                      choices)))
    in
    if names = [] then
      Error (`Msg (Fmt.str "empty validity list (one of: %s, or all)" choices))
    else resolve [] names
  in
  C.Arg.conv
    (parse, fun ppf ps -> Fmt.(list ~sep:comma Vv_ballot.Property.pp) ppf ps)

let check_cmd =
  let doc =
    "Exhaustively model-check the small-model space: every variant, \
     substrate and communication model against the enumerated adversary \
     universe, with the paper's bounds as the oracle. Exits nonzero on \
     any violation of a promised guarantee, or when some bound kind has \
     no below-bound tightness witness. --validity sweeps other validity \
     properties (one engine run per execution, classified against each)."
  in
  let validity =
    C.Arg.(
      value
      & opt validity_list_conv [ Vv_ballot.Property.voting ]
      & info [ "validity" ] ~docv:"P1,P2,..."
          ~doc:
            (Fmt.str
               "Comma-separated validity properties to sweep (%s, or \
                $(b,all)). Default: voting, the paper's property."
               (String.concat ", " Vv_ballot.Property.names)))
  in
  campaign_cmd "check" ~doc
    C.Term.(
      const (fun properties -> Vv_check.Report.campaign ~properties ())
      $ validity)

let chaos_cmd =
  let doc =
    "Resilience campaign on the chaos network substrate: sweep omission \
     rate and transient-partition scenarios across every protocol variant \
     and classify each grid cell Exact / Stall / Violation (experiment \
     E17). Exits nonzero when the safety-guaranteed variant shows any \
     Violation."
  in
  let retransmit =
    C.Arg.(
      value & flag
      & info [ "retransmit" ]
          ~doc:"Enable the capped-exponential-backoff retransmission \
                policy for every run.")
  in
  campaign_cmd "chaos" ~doc
    C.Term.(
      const (fun retransmit trials ->
          Vv_analysis.Exp_chaos.campaign ~retransmit ?trials ())
      $ retransmit $ Cli.trials_term)

let gst_cmd =
  let doc =
    "Network-agnostic validity campaign across synchrony models: sweep \
     (t_s, t_a) tolerance pairs and GST placement over synchronous, \
     eventually-synchronous and asynchronous schedulers, and map the \
     achievable region against N > max{3t, 2t + 2*B_G + C_G} (experiment \
     E20). Exits nonzero when a predicted-achievable cell shows any \
     violation or stall."
  in
  campaign_cmd "gst" ~doc
    C.Term.(
      const (fun trials -> Vv_analysis.Exp_gst.campaign ?trials ())
      $ Cli.trials_term)

let validity_cmd =
  let doc =
    "Validity-hierarchy campaign (experiment E21): run every \
     implementation (voting-validity protocol variants plus the \
     strong/median/interval baselines) on wide / tie / over-fault \
     electorates and judge each outcome against every first-class \
     validity property. Exits nonzero when any predicted-solvable \
     (impl, config, validity) cell shows a violation or stall — the \
     executable form of the arXiv 2301.04920 solvability hierarchy."
  in
  campaign_cmd "validity" ~doc
    C.Term.(
      const (fun trials -> Vv_analysis.Exp_validity.campaign ?trials ())
      $ Cli.trials_term)

(* --- serve / load --- *)

(* Listener flags shared by serve and load: exactly one of --socket PATH
   (Unix domain) or --port N (TCP on --host, default 127.0.0.1). *)
let socket_arg cmd =
  C.Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:(Fmt.str "Unix-domain socket path for %s." cmd))

let port_arg cmd =
  C.Arg.(
    value
    & opt (some Cli.port) None
    & info [ "port" ] ~docv:"N" ~doc:(Fmt.str "TCP port for %s." cmd))

let host_arg =
  C.Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~doc:"TCP host to bind or connect to.")

let serve_cmd =
  let doc =
    "Run the multi-shot ledger as a line-delimited JSON-RPC daemon: \
     clients submit subjects, filled slots are decided (sharded across \
     --jobs domains) and their decisions streamed back to every \
     connected client. See README for the message shapes."
  in
  let n = C.Arg.(value & opt int 9 & info [ "n" ] ~doc:"Total nodes.") in
  let t =
    C.Arg.(value & opt int 2
           & info [ "t" ] ~doc:"Tolerance (the last t nodes are Byzantine).")
  in
  let protocol =
    C.Arg.(value & opt protocol_conv Runner.Algo2_sct
           & info [ "protocol"; "p" ] ~doc:protocol_doc)
  in
  let batch =
    C.Arg.(value & opt int 4
           & info [ "batch" ] ~doc:"Subjects per slot (the sharding unit).")
  in
  let jobs =
    C.Arg.(value & opt int 1
           & info [ "jobs"; "j" ]
               ~doc:"Worker domains for slot fan-out; 0 = all cores but one.")
  in
  let seed = C.Arg.(value & opt int 0x5e12e & info [ "seed" ] ~doc:"Ledger seed.") in
  let snapshot =
    C.Arg.(value
           & opt (some string) None
           & info [ "snapshot" ] ~docv:"PATH"
               ~doc:"Persist the committed log here, as an append-only \
                     decision log (each commit appends its records before \
                     its decisions are broadcast); an existing log is \
                     loaded at startup, a torn last record dropped, so a \
                     restart resumes where it left off.")
  in
  let quiet =
    C.Arg.(value & flag
           & info [ "quiet"; "q" ] ~doc:"Suppress the daemon's stderr log.")
  in
  (* A Unix socket path, or HOST:PORT when the text after the last ':' is
     all digits; a bad host or port is a usage error. *)
  let follow_conv =
    let parse addr =
      let inet host port =
        match Cli.port_of_string port with
        | Error _ as e -> e
        | Ok port -> (
            try Ok (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
            with Failure _ ->
              Error (`Msg (Fmt.str "%s: bad host address" addr)))
      in
      match String.rindex_opt addr ':' with
      | Some i when i > 0 ->
          let port = String.sub addr (i + 1) (String.length addr - i - 1) in
          if port <> "" && String.for_all (fun c -> c >= '0' && c <= '9') port
          then inet (String.sub addr 0 i) port
          else Ok (Unix.ADDR_UNIX addr)
      | Some _ | None -> Ok (Unix.ADDR_UNIX addr)
    in
    let print ppf = function
      | Unix.ADDR_UNIX path -> Fmt.string ppf path
      | Unix.ADDR_INET (host, port) ->
          Fmt.pf ppf "%s:%d" (Unix.string_of_inet_addr host) port
    in
    C.Arg.conv (parse, print)
  in
  let follow =
    C.Arg.(value
           & opt (some follow_conv) None
           & info [ "follow" ] ~docv:"ADDR"
               ~doc:"Run as a read-only follower of the primary daemon at \
                     \\$(docv) (a Unix socket path, or HOST:PORT): resync \
                     its committed log via catchup, apply its decision \
                     stream, and reconnect with retry when it dies. \
                     $(b,submit) is refused on a follower.")
  in
  let max_outq =
    C.Arg.(value
           & opt int Vv_serve.Server.default_max_outq
           & info [ "max-outq" ] ~docv:"BYTES"
               ~doc:"Per-client outbound queue bound; a client that stays \
                     this far behind the decision stream is disconnected.")
  in
  let run socket port host n t protocol batch jobs seed snapshot quiet follow
      max_outq =
    let listen =
      match (socket, port) with
      | Some path, None -> (
          try Vv_serve.Server.listen_unix path
          with Failure msg ->
            Fmt.epr "vvc serve: %s@." msg;
            exit 1)
      | None, Some p ->
          let fd = Vv_serve.Server.listen_tcp ~host p in
          Fmt.epr "[listening on %s:%d]@." host (Vv_serve.Server.bound_port fd);
          fd
      | _ ->
          Fmt.epr "vvc serve: need exactly one of --socket or --port@.";
          exit 1
    in
    let byzantine = List.init t (fun i -> n - 1 - i) in
    let cfg =
      Vv_multishot.Ledger.config ~byzantine ~protocol
        ~retry:(Vv_multishot.Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
        ~seed ~n ~t ()
    in
    let cleanup () =
      Unix.close listen;
      match socket with
      | Some path when Sys.file_exists path -> Sys.remove path
      | _ -> ()
    in
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Vv_serve.Server.log_src
      (if quiet then None else Some Logs.Info);
    let o =
      match follow with
      | Some primary ->
          Vv_serve.Replica.run ~batch ~jobs ?snapshot ~max_outq ~primary
            ~listen cfg
      | None ->
          Vv_serve.Server.serve ~batch ~jobs ?snapshot ~max_outq ~listen cfg
    in
    cleanup ();
    Fmt.pr
      "served %d clients, final height %d, %d slow disconnects, %d catchups@."
      o.Vv_serve.Server.served_clients o.height o.slow_disconnects o.catchups
  in
  let checked socket port host n t protocol batch jobs seed snapshot quiet
      follow max_outq =
    sized ~batch ~jobs ~n ~t (fun () ->
        run socket port host n t protocol batch jobs seed snapshot quiet follow
          max_outq)
  in
  C.Cmd.v (C.Cmd.info "serve" ~doc)
    C.Term.(
      ret
        (const checked $ socket_arg "the daemon" $ port_arg "the daemon"
        $ host_arg $ n $ t $ protocol $ batch $ jobs $ seed $ snapshot $ quiet
        $ follow $ max_outq))

let load_cmd =
  let doc =
    "Drive a running serve daemon: submit a deterministic burst of \
     random-electorate subjects round-robin across a client pool, wait \
     for every decision to stream back, and report sustained \
     decisions/s. Exits nonzero when any submission errors, a decision \
     is missing, or a committed decision lacks voting validity."
  in
  let clients =
    C.Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Connection pool size.")
  in
  let subjects =
    C.Arg.(
      value
      & opt (Cli.non_negative_int ~flag:"--subjects") 96
      & info [ "subjects" ] ~doc:"Subjects to submit.")
  in
  let seed =
    C.Arg.(value & opt int 0x10ad & info [ "seed" ] ~doc:"Electorate seed.")
  in
  let shutdown =
    C.Arg.(value & flag
           & info [ "shutdown" ] ~doc:"Ask the daemon to stop afterwards.")
  in
  let retry_for =
    C.Arg.(value & opt float 10.
           & info [ "retry-for" ] ~docv:"SECONDS"
               ~doc:"Keep retrying the initial connection this long (lets \
                     the client race a daemon that is still starting).")
  in
  let racy =
    C.Arg.(value & flag
           & info [ "racy" ]
               ~doc:"Fire every submission without awaiting acks, so \
                     position assignment races across connections. The \
                     committed log is then scheduling-dependent; the check \
                     becomes set-equality of decided subjects instead of \
                     per-position determinism.")
  in
  let run format socket port host clients subjects seed shutdown retry_for racy
      =
    let target, connect =
      match (socket, port) with
      | Some path, None ->
          (path, fun () -> Vv_serve.Client.connect_unix ~retry_for path)
      | None, Some p ->
          ( Fmt.str "%s:%d" host p,
            fun () -> Vv_serve.Client.connect_tcp ~retry_for ~host p )
      | _ ->
          Fmt.epr "vvc load: need exactly one of --socket or --port@.";
          exit 1
    in
    (* Once --retry-for runs out, an unreachable daemon is a failure
       like any other, not an exception. *)
    let connect () =
      try connect ()
      with Unix.Unix_error (err, _, _) ->
        Fmt.epr "vvc load: cannot connect to %s: %s@." target
          (Unix.error_message err);
        exit 1
    in
    let conns = List.init (max 1 clients) (fun _ -> connect ()) in
    (* The input arity comes from the daemon, not a local guess. *)
    let n_nodes, tol =
      match List.hd conns |> Vv_serve.Client.status with
      | Ok (Json.Obj fields) -> (
          match (Json.member "n" fields, Json.member "t" fields) with
          | Some (Json.Int n), Some (Json.Int t) -> (n, t)
          | _ ->
              Fmt.epr "vvc load: daemon status carries no n/t@.";
              exit 1)
      | Ok _ | Error _ ->
          Fmt.epr "vvc load: cannot query daemon status@.";
          exit 1
    in
    let rng = Vv_prelude.Rng.create (Vv_prelude.Rng.derive seed 1) in
    let dist =
      Vv_dist.Multinomial.create ~n:(n_nodes - tol) ~p:[| 0.5; 0.3; 0.2 |]
    in
    let reqs =
      List.init subjects (fun subject ->
          let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
          (subject, honest @ List.init tol (fun _ -> Oid.of_int 0)))
    in
    let driver =
      if racy then Vv_serve.Client.run_load_racy else Vv_serve.Client.run_load
    in
    let report =
      match driver ~shutdown ~conns reqs with
      | Ok r -> r
      | Error msg ->
          Fmt.epr "vvc load: %s@." msg;
          exit 1
    in
    List.iter Vv_serve.Client.close conns;
    let all_valid =
      List.for_all
        (fun (s : Vv_multishot.Ledger.slot) ->
          s.Vv_multishot.Ledger.decision = None || s.Vv_multishot.Ledger.valid)
        report.Vv_serve.Client.decisions
    in
    (* In racy mode positions are scheduling-dependent, so the invariant
       is set-equality of decided subjects against what was submitted. *)
    let subjects_match =
      (not racy)
      || Vv_serve.Client.subjects_decided report
         = List.sort compare (List.map fst reqs)
    in
    (match format with
    | Emit.Json ->
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("racy", Json.Bool racy);
                  ("submitted", Json.Int report.Vv_serve.Client.submitted);
                  ( "decided",
                    Json.Int (List.length report.Vv_serve.Client.decisions) );
                  ("elapsed_s", Json.Float report.Vv_serve.Client.elapsed);
                  ("decisions_per_s", Json.Float report.Vv_serve.Client.rate);
                  ("all_committed_valid", Json.Bool all_valid);
                  ("subjects_match", Json.Bool subjects_match);
                  ( "errors",
                    Json.List
                      (List.map
                         (fun e -> Json.String e)
                         report.Vv_serve.Client.errors) );
                ]))
    | _ ->
        Fmt.pr "submitted=%d decided=%d elapsed=%.2fs rate=%.0f/s \
                all-committed-valid=%b subjects-match=%b@."
          report.Vv_serve.Client.submitted
          (List.length report.Vv_serve.Client.decisions)
          report.Vv_serve.Client.elapsed report.Vv_serve.Client.rate all_valid
          subjects_match);
    if
      report.Vv_serve.Client.errors <> []
      || List.length report.Vv_serve.Client.decisions
         <> report.Vv_serve.Client.submitted
      || (not all_valid) || not subjects_match
    then exit 1
  in
  C.Cmd.v (C.Cmd.info "load" ~doc)
    C.Term.(
      const run $ format_term $ socket_arg "the daemon" $ port_arg "the daemon"
      $ host_arg $ clients $ subjects $ seed $ shutdown $ retry_for $ racy)

let () =
  let doc = "Exact fault-tolerant consensus with voting validity (IPDPS 2023)" in
  let info = C.Cmd.info "vvc" ~version:"1.0.0" ~doc in
  exit
    (C.Cmd.eval
       (C.Cmd.group info
          [ list_cmd; exp_cmd; all_cmd; bounds_cmd; run_cmd; check_cmd;
            chaos_cmd; gst_cmd; validity_cmd; ledger_cmd; radio_cmd;
            serve_cmd; load_cmd ]))
