(* Workload check-full: the exhaustive voting-validity sweep that
   `vvc check --profile=full` runs — Campaign.run of Report.campaign () at
   Full, jobs=1: 43,043 scripted Byzantine/crash executions over 1,368
   cells, each run through the simulator and classified by the oracle,
   then aggregated (with shrinking of the tightness witnesses).

   The sweep is fully scripted: the seed selects nothing, so every seed
   gives the same inputs and the same report. *)

open Measure
module Space = Vv_check.Space
module Oracle = Vv_check.Oracle
module Check = Vv_check.Check
module Report = Vv_check.Report
module Campaign = Vv_exec.Campaign
module Runner = Vv_core.Runner
module Table = Vv_prelude.Table
module Property = Vv_ballot.Property

let expected_runs = 43_043
let expected_cells = 1_368
let dims = Check.dims_of Check.Full

(* The rendered report (every table as CSV, then the verdict line); its
   digest must not change between repeats. *)
let digest tables verdict =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Table.to_csv tables @ [ verdict ])))

(* Violations counted from the summary table (last column), the verdict
   and the run/cell totals in its title: 0 when the report is the one
   the paper's bounds predict, otherwise the number of runs it gets
   wrong (every run when the shape itself is off). *)
let failures tables verdict =
  let title =
    Printf.sprintf "vv_check full: %d cells, %d runs" expected_cells expected_runs
  in
  let ok_verdict =
    String.length verdict > 3 && String.sub verdict 0 3 = "OK:"
  in
  match tables with
  | summary :: _ when Table.title summary = title && ok_verdict ->
      List.fold_left
        (fun acc row -> acc + int_of_string (List.nth row 7))
        0 (Table.rows summary)
  | _ -> expected_runs

(* Set-up: build the execution array (and the campaign value). *)
let setup () =
  let campaign = Report.campaign () in
  let execs = Space.executions dims in
  assert (Array.length execs = expected_runs);
  campaign

let sweep campaign =
  let o, dt = time (fun () -> Campaign.run ~profile:Campaign.Full ~jobs:1 campaign) in
  let e = o.Campaign.emitted in
  let verdict = Option.value ~default:"" e.Campaign.verdict in
  let failed =
    if e.Campaign.ok && o.Campaign.cells_run = expected_runs then
      failures e.Campaign.tables verdict
    else expected_runs
  in
  (o, dt, digest e.Campaign.tables verdict, failed)

(* One set-up, timed on a freshly collected heap so that the collector
   work it triggers does not depend on what ran before it. *)
let setup_timed () =
  Gc.full_major ();
  snd (time setup)

let setups_per_sweep = 2

(* Every timed unit (the set-ups and the sweep after them) sits between
   two host-speed kernels and is scaled by their factor; each figure is
   the median of its scaled per-sweep values.  The first sweep is a
   warm-up and is checked but not timed. *)
let run_untraced ~seconds =
  let campaign = setup () in
  let hist = Us_hist.create 20_000 and all = Us_hist.create 20_000 in
  let setups = ref [] and rates = ref [] and p50s = ref [] and p90s = ref [] in
  let raw_rates = ref [] and digests = ref [] and failed = ref 0 and sweeps = ref 0 in
  let heap = ref 0. and kernels = ref [] in
  let one () =
    let st = List.init setups_per_sweep (fun _ -> setup_timed ()) in
    let o, dt, d, f = sweep campaign in
    heap := Float.max !heap (live_heap_mb ());
    digests := d :: !digests;
    failed := !failed + f;
    incr sweeps;
    (o, st, dt)
  in
  ignore (one ());
  let before = ref (Speed.sample ()) in
  let t_start = now () in
  while List.length !rates < 3 || now () -. t_start < seconds do
    let o, st, dt = one () in
    let after = Speed.sample () in
    kernels := after :: !kernels;
    let k = Speed.scale ~before:!before ~after in
    before := after;
    Us_hist.reset hist;
    Array.iter (Us_hist.add hist) o.Campaign.cell_seconds;
    Array.iter (Us_hist.add all) o.Campaign.cell_seconds;
    setups := List.map (fun s -> s *. k) st @ !setups;
    raw_rates := (float_of_int o.Campaign.cells_run /. dt) :: !raw_rates;
    rates := (float_of_int o.Campaign.cells_run /. (dt *. k)) :: !rates;
    p50s := (Us_hist.quantile hist 0.5 *. k) :: !p50s;
    p90s := (Us_hist.quantile hist 0.9 *. k) :: !p90s
  done;
  let timed = List.length !rates in
  let attempted = !sweeps * expected_runs in
  let same_digest = List.for_all (( = ) (List.hd !digests)) !digests in
  let failed = if same_digest then !failed else attempted in
  let runs_per_s = median !rates and setup_s = median !setups in
  let p50 = median !p50s and p90 = median !p90s in
  let heap = !heap in
  Printf.printf "check-full: %d sweeps of %d runs (1 warm-up), report digest %s%s\n"
    !sweeps expected_runs (List.hd !digests)
    (if same_digest then " on every sweep" else " CHANGED between sweeps");
  Printf.printf "  (timings at the calibrated host speed, medians of %d sweeps; \
                 host kernel %.5f s, nominal %.5f s)\n"
    timed (median !kernels) Speed.nominal_s;
  Printf.printf "  runs_per_s       %12.1f runs/s (as measured: %.1f)\n" runs_per_s
    (median !raw_rates);
  Printf.printf "  run_p50_ms       %12.5f ms   (per execution, %d samples)\n" p50 (Us_hist.total all);
  Printf.printf "  run_p90_ms       %12.5f ms\n" p90;
  Printf.printf "  run_p99_ms       %12.5f ms   (as measured, all sweeps)\n"
    (Us_hist.quantile all 0.99);
  Printf.printf "  setup_s          %12.5f s    (median of %d set-ups)\n" setup_s
    (List.length !setups);
  Printf.printf "  heap_peak_mb     %12.3f MB\n" heap;
  Printf.printf "  failed_share     %12.6f ratio (%d of %d runs)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "heap_peak_mb"; value = heap; unit_ = "MB" };
        { name = "throughput_per_s"; value = runs_per_s; unit_ = "1/s" };
        { name = "latency_p50_ms"; value = p50; unit_ = "ms" };
        { name = "latency_p90_ms"; value = p90; unit_ = "ms" };
      ];
  }

(* --- traced run --- *)

(* The same spec with a one-round budget: what run_checked costs before
   any round beyond the first, an upper bound on run construction. *)
let one_round (s : Runner.spec) =
  Runner.spec ~byzantine:s.byzantine ~crash:s.crash ~protocol:s.protocol
    ~bb:s.bb ~strategy:s.strategy ~tie:s.tie ~delay:s.delay ~network:s.network
    ?retransmit:s.retransmit ~seed:s.seed ~max_rounds:1 ~subject:s.subject
    ~speaker:s.speaker ?judgment_override:s.judgment_override ~n:s.n ~t:s.t
    s.inputs

type replay = {
  layers : Acc.t;
  children : Acc.t;
  rounds : int;
  msgs : int;
  minor_words : float;
  wall : float;  (** the timed pass, without the one-round pass *)
  replay_digest : string;
  replay_failed : int;
}

(* The sweep's calls in the sweep's order, each timed from outside:
   enumerate, then per execution spec_of -> run_checked -> classify, then
   aggregate. *)
let traced_replay () =
  let layers = Acc.create () and children = Acc.create () in
  let t_start = now () in
  let execs, dt = time (fun () -> Space.executions dims) in
  Acc.add layers "space.executions_s" dt;
  let n = Array.length execs in
  let classes = Array.make n Oracle.Exact in
  (* Per-run sums in locals, per-substrate sums by label index: the loop
     body adds four clock reads and two word reads to each run. *)
  let labels = Array.map (fun e -> Space.substrate_label e.Space.cell) execs in
  let label_names = List.sort_uniq compare (Array.to_list labels) in
  let label_ix = Array.map (fun l -> List.length (List.filter (fun x -> x < l) label_names)) labels in
  let by_label = Array.make (List.length label_names) 0. in
  let spec_s = ref 0. and run_s = ref 0. and classify_s = ref 0. in
  let rounds = ref 0 and msgs = ref 0 and words = ref 0. in
  for i = 0 to n - 1 do
    let exec = execs.(i) in
    let t0 = now () in
    let spec = Space.spec_of exec in
    let t1 = now () in
    let w0 = Gc.minor_words () in
    let outcome = Runner.run_checked spec in
    let w1 = Gc.minor_words () in
    let t2 = now () in
    let cls = Oracle.classify ~property:Property.voting exec outcome in
    let t3 = now () in
    classes.(i) <- cls;
    words := !words +. (w1 -. w0);
    (match outcome with
    | Ok o ->
        rounds := !rounds + o.Runner.rounds;
        msgs := !msgs + o.Runner.honest_msgs + o.Runner.byz_msgs
    | Error _ -> ());
    spec_s := !spec_s +. (t1 -. t0);
    run_s := !run_s +. (t2 -. t1);
    classify_s := !classify_s +. (t3 -. t2);
    by_label.(label_ix.(i)) <- by_label.(label_ix.(i)) +. (t2 -. t1)
  done;
  let result, dt =
    time (fun () -> Check.aggregate ~property:Property.voting Check.Full ~execs ~classes)
  in
  let wall = now () -. t_start in
  Acc.add layers "space.spec_of_s" !spec_s;
  Acc.add layers "runner.run_checked_s" !run_s;
  Acc.add layers "oracle.classify_s" !classify_s;
  Acc.add layers "check.aggregate_s" dt;
  List.iteri (fun k l -> Acc.add children ("bb." ^ l ^ ".run_s") by_label.(k)) label_names;
  let verdict = Report.verdict_line result in
  let tables = Report.tables result in
  Array.iter
    (fun exec ->
      let s = one_round (Space.spec_of exec) in
      let _, dt = time (fun () -> Runner.run_checked s) in
      Acc.add children "runner.first_round_s" dt)
    execs;
  {
    layers;
    children;
    rounds = !rounds;
    msgs = !msgs;
    minor_words = !words;
    wall;
    replay_digest = digest tables verdict;
    replay_failed = failures tables verdict;
  }

(* The same calls with no timers, for the tracing overhead. *)
let bare_replay () =
  snd
    (time (fun () ->
         let execs = Space.executions dims in
         let classes =
           Array.map
             (fun exec ->
               Oracle.classify ~property:Property.voting exec
                 (Runner.run_checked (Space.spec_of exec)))
             execs
         in
         Check.aggregate ~property:Property.voting Check.Full ~execs ~classes))

let run_traced ~seconds =
  let campaign = setup () in
  let sweeps = ref [] and replays = ref [] and bares = ref [] in
  let t_start = now () in
  (* Untraced sweep first in every cycle: caches the runs fill lazily are
     warm before the first replay counts its words. *)
  while List.length !replays < 2 || now () -. t_start < seconds do
    sweeps := sweep campaign :: !sweeps;
    replays := traced_replay () :: !replays;
    bares := bare_replay () :: !bares
  done;
  let digests = List.map (fun (_, _, d, _) -> d) !sweeps in
  let d0 = List.hd digests in
  let first = List.hd !replays in
  let counts_repeat =
    List.for_all
      (fun r ->
        r.rounds = first.rounds && r.msgs = first.msgs
        && r.minor_words = first.minor_words)
      !replays
  in
  let digests_agree =
    List.for_all (( = ) d0) digests
    && List.for_all (fun r -> r.replay_digest = d0) !replays
  in
  let sweep_failed = List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 !sweeps in
  let replay_failed = List.fold_left (fun acc r -> acc + r.replay_failed) 0 !replays in
  let attempted = (List.length !sweeps + List.length !replays) * expected_runs in
  let failed =
    if counts_repeat && digests_agree then sweep_failed + replay_failed else attempted
  in
  let e2e = median (List.map (fun (_, dt, _, _) -> dt) !sweeps) in
  let parts = median_by_key (List.map (fun r -> r.layers) !replays) in
  let child_meds = median_by_key (List.map (fun r -> r.children) !replays) in
  let run_checked = List.assoc "runner.run_checked_s" parts in
  let runs = float_of_int expected_runs in
  let overhead =
    (median (List.map (fun r -> r.wall) !replays) -. median !bares) /. median !bares
  in
  Printf.printf "check-full traced: %d sweeps, %d timed replays, %d bare replays; \
                 counts %s across replays; report digest %s\n"
    (List.length !sweeps) (List.length !replays) (List.length !bares)
    (if counts_repeat then "repeat exactly" else "DIFFER")
    (if digests_agree then "identical in sweeps and replays" else "DIFFERS");
  let metrics =
    layer_metrics
      {
        workload = "check-full";
        e2e_s = e2e;
        e2e_what = "one untraced Campaign.run sweep";
        parts;
        residual = "executor.residual_s";
        children =
          List.map
            (fun (k, v) ->
              (k, "runner.run_checked_s", v))
            child_meds;
        extra =
          [
            {
              name = "runner.ns_per_round";
              value = run_checked /. float_of_int first.rounds *. 1e9;
              unit_ = "ns";
            };
            { name = "runner.rounds"; value = float_of_int first.rounds; unit_ = "count" };
            { name = "runner.msgs"; value = float_of_int first.msgs; unit_ = "count" };
            {
              name = "runner.minor_words_per_run";
              value = first.minor_words /. runs;
              unit_ = "words";
            };
          ];
        overhead_ratio = overhead;
        samples =
          Printf.sprintf "median of %d sweeps; layers median of %d replays"
            (List.length !sweeps) (List.length !replays);
      }
  in
  { correct = failed = 0; attempted; failed; metrics }
