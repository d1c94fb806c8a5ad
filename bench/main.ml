(* Timing harness.

   Running `dune exec bench/main.exe` times the paper's machinery: the
   enumeration memoisation behind Figure 1(b), the domain pool on the
   Figure 1(b) sweep and a run batch, the E17 chaos campaign, and one
   Bechamel wall-clock micro-benchmark per experiment family (a full
   consensus instance per protocol, each broadcast substrate, and the
   probability kernels behind Figure 1).  `vvc all` regenerates the
   tables themselves.

   `--quick` shrinks the timing workloads and the Bechamel quota for
   smoke runs; `--jobs=N` sets the domain count of the pool timings
   (default 4); `--json=PATH` additionally writes the micro-benchmark
   results as a JSON array of {name, ns_per_run, runs} records. *)

module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Oid = Vv_ballot.Option_id

let winning = Vv_analysis.Witness.inputs ~ag:9 ~bg:2 ~cg:1

let consensus_run protocol () =
  let r =
    Runner.simple ~protocol ~strategy:Strategy.Collude_second ~t:2 ~f:2 winning
  in
  assert r.Runner.termination

let bb_run choice () =
  let honest = Vv_analysis.Witness.inputs ~ag:6 ~bg:1 ~cg:0 in
  let r =
    Runner.simple ~protocol:Runner.Algo1 ~bb:choice
      ~strategy:Strategy.Collude_second ~t:1 ~f:1 honest
  in
  assert r.Runner.termination

let fig1b_exact_cell () =
  let dist = Vv_dist.Profiles.(distribution d2) in
  ignore (Vv_dist.Exact.pr_voting_validity dist ~t:2)

let fig1b_cached_cell () =
  let dist = Vv_dist.Profiles.(distribution d2) in
  ignore (Vv_dist.Cache.pr_voting_validity dist ~t:2)

(* Before/after timing for the enumeration memoisation: the Figure 1(b)
   exact column evaluated over every profile and tolerance, once through
   Exact (re-enumerates the multinomial support at each of the t_max+1
   points) and once through Cache (one enumeration per profile, suffix-sum
   lookups afterwards).  A larger electorate than the paper's ng=10 makes
   the enumeration cost visible above timer noise. *)
let memo_timing ?(ng = 28) ?(t_max = 4) ?(reps = 5) () =
  let sweep pr_vv =
    List.iter
      (fun pr ->
        let dist = Vv_dist.Profiles.distribution ~ng pr in
        for t = 0 to t_max do
          ignore (pr_vv dist ~t)
        done)
      Vv_dist.Profiles.all
  in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to reps do f () done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let before = time (fun () -> sweep Vv_dist.Exact.pr_voting_validity) in
  let after =
    time (fun () ->
        Vv_dist.Cache.clear ();
        sweep Vv_dist.Cache.pr_voting_validity)
  in
  Fmt.pr "@.== Fig 1(b) exact sweep, enumeration memoisation (ng=%d, t=0..%d, \
          %d profiles) ==@."
    ng t_max
    (List.length Vv_dist.Profiles.all);
  Fmt.pr "before (Exact, re-enumerates per point) : %8.4f s@." before;
  Fmt.pr "after  (Cache, one enumeration/profile) : %8.4f s@." after;
  Fmt.pr "speedup                                  : %8.2fx@."
    (if after > 0.0 then before /. after else Float.infinity)

(* Single-domain vs multi-domain wall-clock for the executor's domain
   pool: the Figure 1(b) empirical sweep and a large single-spec
   Monte-Carlo batch under derived seeds, both fanned out through
   Executor.map.  Results are identical at every jobs value (asserted
   here, pinned properly in test_exec.ml); only the wall-clock should
   move.  On a single-core host the pool degrades to roughly the
   sequential time plus spawn overhead. *)
let par_timing ?(jobs = 4) ?(trials = 10_000) () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let spec =
    Runner.simple_spec ~protocol:Runner.Algo1
      ~strategy:Strategy.Collude_second ~t:2 ~f:2 winning
  in
  let batch jobs () =
    Vv_exec.Executor.map ~jobs ~count:trials (fun i ->
        Runner.run_checked
          (Runner.with_seed (Vv_exec.Executor.derive_seed ~seed:0xbead i) spec))
  in
  let sweep jobs () =
    Vv_prelude.Table.to_csv
      (Vv_analysis.Exp_fig1.fig1b ~jobs ~trials:600 ())
  in
  let report what (r1, t1) (rj, tj) =
    assert (r1 = rj);
    Fmt.pr "%-42s jobs=1 %8.3f s   jobs=%d %8.3f s   speedup %5.2fx@." what
      t1 jobs tj
      (if tj > 0.0 then t1 /. tj else Float.infinity);
  in
  Fmt.pr "@.== Domain pool wall-clock (available cores: %d) ==@."
    (Domain.recommended_domain_count ());
  report (Fmt.str "map %d x algo1-n14" trials) (wall (batch 1))
    (wall (batch jobs));
  report "fig1b empirical sweep (600 trials/cell)" (wall (sweep 1))
    (wall (sweep jobs))

(* Chaos-campaign throughput through the domain pool: the E17 smoke grid
   (several hundred protocol runs under omission/partition injection) at
   jobs=1 vs jobs=0 (all cores but one).  The rendered report must be
   byte-identical at both values — asserted here, pinned properly in
   test_chaos.ml. *)
let chaos_timing ?(trials = 6) () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let module Campaign = Vv_exec.Campaign in
  let campaign jobs () =
    let o =
      Campaign.run ~profile:Campaign.Smoke ~jobs
        (Vv_analysis.Exp_chaos.campaign ~trials ())
    in
    ( Vv_exec.Emit.tables_string Vv_exec.Emit.Csv o.Campaign.emitted.tables,
      o.Campaign.cells_run * trials )
  in
  let (r1, n1), t1 = wall (campaign 1) in
  let (r0, n0), t0 = wall (campaign 0) in
  assert (r1 = r0 && n1 = n0);
  let rate t = if t > 0.0 then float_of_int n1 /. t else Float.infinity in
  Fmt.pr "@.== Chaos campaign throughput (E17 smoke grid, %d runs) ==@." n1;
  Fmt.pr "jobs=1          : %8.3f s  (%8.1f runs/s)@." t1 (rate t1);
  Fmt.pr "jobs=0 (%d cores): %8.3f s  (%8.1f runs/s)@."
    (Domain.recommended_domain_count ())
    t0 (rate t0);
  Fmt.pr "speedup         : %8.2fx@."
    (if t0 > 0.0 then t1 /. t0 else Float.infinity)

let fig1b_mc_cell =
  let rng = Vv_prelude.Rng.create 17 in
  fun () ->
    let dist = Vv_dist.Profiles.(distribution d2) in
    ignore (Vv_dist.Montecarlo.pr_voting_validity dist ~t:2 ~samples:2_000 ~rng)

let median_baseline () =
  let cfg = Vv_sim.Config.with_byzantine ~n:11 ~t_max:2 [ 9; 10 ] () in
  let s =
    Vv_analysis.Baseline_runner.run_median cfg
      ~inputs:(fun id -> 100 + id)
      ~collude:true
  in
  assert (not s.Vv_analysis.Baseline_runner.stalled)

let radio_ring () =
  let topo = Vv_radio.Topology.ring ~k:2 12 in
  let inputs =
    List.init 12 (fun i -> Oid.of_int (if i mod 5 = 4 then 1 else 0))
  in
  let r =
    Vv_radio.Radio_runner.run ~topology:topo ~t:1 ~byzantine:[ 11 ] inputs
  in
  assert r.Vv_radio.Radio_runner.termination

let ledger_slot =
  let cfg =
    Vv_multishot.Ledger.config ~byzantine:[ 7; 8 ] ~n:9 ~t:2
      ~protocol:Runner.Algo1 ()
  in
  let inputs =
    List.init 7 (fun i -> Oid.of_int (if i = 6 then 1 else 0))
    @ [ Oid.of_int 0; Oid.of_int 0 ]
  in
  fun () ->
    let slot = Vv_multishot.Ledger.compute cfg ~index:0 ~subject:1 inputs in
    assert (slot.Vv_multishot.Ledger.decision <> None)

let engine_batch_run =
  (* A filled batch of decisive electorates through the multi-shot
     engine: submit, step, merge — the serve daemon's commit path minus
     the sockets. *)
  let cfg =
    Vv_multishot.Ledger.config ~byzantine:[ 7; 8 ] ~n:9 ~t:2
      ~protocol:Runner.Algo1 ()
  in
  let reqs =
    List.init 8 (fun s ->
        ( s,
          List.init 7 (fun i -> Oid.of_int (if i = 6 then 1 else 0))
          @ [ Oid.of_int 0; Oid.of_int 0 ] ))
  in
  fun () ->
    let log, stats = Vv_multishot.Engine.run ~batch:4 ~jobs:1 cfg reqs in
    assert (List.length log = 8 && stats.Vv_multishot.Engine.all_valid)

let rpc_parse_micro =
  (* The daemon's framing layer for one submission: parse + ack render. *)
  let line =
    {|{"id":42,"method":"submit","params":{"subject":7,"inputs":[0,1,0,2,1,0,0,0,0]}}|}
  in
  fun () ->
    match Vv_serve.Rpc.parse line with
    | Ok (Vv_serve.Rpc.Submit _) ->
        ignore
          (Vv_serve.Rpc.submit_ack ~id:(Vv_prelude.Json.Int 42) ~position:11
             ~slot:2 ~lane:3)
    | _ -> assert false

let gst_scheduler_step =
  (* A full run of a chatty flood under the GST scheduler: pre-GST
     admissibility caps spread deliveries across scheduler buckets, then
     bounded delay from GST on — the per-round scheduling cost the E20
     campaign leans on. *)
  let module Chatty = struct
    type input = int
    type msg = int
    type output = int
    type state = { mutable seen : int }

    let name = "chatty-gst"
    let equal_msg = Int.equal

    let init (_ : Vv_sim.Protocol.ctx) v ~outbox =
      Vv_sim.Outbox.broadcast outbox v;
      { seen = 0 }

    let step (_ : Vv_sim.Protocol.ctx) st ~round:_ ~inbox ~outbox =
      let acc = ref st.seen in
      for i = 0 to Vv_sim.Inbox.length inbox - 1 do
        acc := !acc lxor Vv_sim.Inbox.msg inbox i lxor Vv_sim.Inbox.src inbox i
      done;
      st.seen <- !acc;
      Vv_sim.Outbox.broadcast outbox st.seen;
      st

    let output _ = None
    let phase _ = "chat"
    let inert _ = false
  end in
  let module E = Vv_sim.Engine.Make (Chatty) in
  let cfg =
    Vv_sim.Config.make ~n:6 ~t_max:1 ~max_rounds:64
      ~delay:
        (Vv_sim.Delay.Eventually_synchronous
           { gst = 8; bound = 2; schedule = None })
      ~seed:0x6057 ()
  in
  fun () ->
    let r = E.run_exn cfg ~inputs:(fun id -> id) () in
    assert r.E.stalled

let tally_micro =
  let inputs = List.init 1_000 (fun i -> Oid.of_int (i mod 5)) in
  fun () ->
    ignore
      (Vv_ballot.Tally.plurality ~tie:Vv_ballot.Tie_break.default
         (Vv_ballot.Tally.of_list inputs))

(* The parametric oracle: one pre-run checker execution classified
   against every first-class validity property — the per-property cost
   of `vvc check --validity=all` with the engine run factored out. *)
let oracle_classify_micro =
  let exec = (Vv_check.Space.executions Vv_check.Space.smoke).(0) in
  let outcome = Runner.run_checked (Vv_check.Space.spec_of exec) in
  fun () ->
    List.iter
      (fun p -> ignore (Vv_check.Oracle.classify ~property:p exec outcome))
      Vv_ballot.Property.all

(* Serialise the merged OLS table (ns/run per test) plus the raw sample
   counts as one JSON array, for tracking bench results across commits. *)
let write_bench_json path rows =
  let module Json = Vv_prelude.Json in
  let entry (name, ns_per_run, runs) =
    Json.Obj
      [
        ("name", Json.String name);
        ( "ns_per_run",
          match ns_per_run with Some v -> Json.Float v | None -> Json.Null );
        ("runs", Json.Int runs);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.List (List.map entry rows)) ^ "\n");
  close_out oc;
  Fmt.epr "[written %s]@." path

(* The benchmark suite in its declared order — the one source of truth for
   both the printed table and the JSON rows, so bench output (and the
   committed baseline it is diffed against) is stable across runs instead
   of depending on hash-table iteration or polymorphic sorting of rows
   that carry floats. *)
let declared_benches =
  [
    ("algo1-consensus-n14", consensus_run Runner.Algo1);
    ("algo2-sct-consensus-n14", consensus_run Runner.Algo2_sct);
    ("algo3-incremental-n14", consensus_run Runner.Algo3_incremental);
    ("algo4-local-n14", consensus_run Runner.Algo4_local);
    ("cft-n14", consensus_run Runner.Cft);
    ("bb-dolev-strong-n8", bb_run Vv_bb.Bb.Dolev_strong);
    ("bb-eig-n8", bb_run Vv_bb.Bb.Eig);
    ("bb-phase-king-n8", bb_run Vv_bb.Bb.Phase_king);
    ("fig1b-exact-cell", fig1b_exact_cell);
    ("fig1b-cached-cell", fig1b_cached_cell);
    ("fig1b-montecarlo-cell", fig1b_mc_cell);
    ("baseline-median-n11", median_baseline);
    ("radio-ring12-consensus", radio_ring);
    ("ledger-slot-n9", ledger_slot);
    ("ledger-engine-batch8-n9", engine_batch_run);
    ("serve-rpc-submit-parse", rpc_parse_micro);
    ("gst-scheduler-step", gst_scheduler_step);
    ("tally-plurality-1k", tally_micro);
    ("oracle-classify-parametric", oracle_classify_micro);
  ]

(* Position of a result row in the declared suite; result names may carry
   the "voting-validity/" group prefix. *)
let declared_rank name =
  let base =
    match String.rindex_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let rec go i = function
    | [] -> List.length declared_benches
    | (n, _) :: rest -> if n = base then i else go (i + 1) rest
  in
  go 0 declared_benches

let benches ?(quick = false) ?json_path () =
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"voting-validity"
      (List.map
         (fun (name, f) -> Test.make ~name (Staged.stage f))
         declared_benches)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    if quick then
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.1) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Fmt.pr "@.== Bechamel micro-benchmarks (ns per run) ==@.";
  let json_rows = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
        |> List.sort (fun (a, _) (b, _) ->
               match Int.compare (declared_rank a) (declared_rank b) with
               | 0 -> String.compare a b
               | c -> c)
      in
      List.iter
        (fun (name, ols) ->
          let ns_per_run =
            match Analyze.OLS.estimates ols with
            | Some (est :: _) -> Some est
            | Some [] | None -> None
          in
          let runs =
            match Hashtbl.find_opt raw name with
            | Some b -> b.Benchmark.stats.Benchmark.samples
            | None -> 0
          in
          json_rows := (name, ns_per_run, runs) :: !json_rows;
          (match ns_per_run with
          | Some est -> Fmt.pr "%-50s %12.1f %s@." name est measure
          | None -> Fmt.pr "%-50s %12s@." name "n/a"))
        rows)
    merged;
  match json_path with
  | None -> ()
  | Some path ->
      write_bench_json path
        (List.sort
           (fun (a, _, _) (b, _, _) ->
             match Int.compare (declared_rank a) (declared_rank b) with
             | 0 -> String.compare a b
             | c -> c)
           !json_rows)

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let keyed key =
    List.fold_left
      (fun acc a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = key ->
            Some (String.sub a (i + 1) (String.length a - i - 1))
        | _ -> acc)
      None args
  in
  let jobs =
    match keyed "--jobs" with Some s -> int_of_string s | None -> 4
  in
  let json_path = keyed "--json" in
  let known a =
    a = "--quick"
    || List.exists
         (fun k -> String.starts_with ~prefix:(k ^ "=") a)
         [ "--jobs"; "--json" ]
  in
  (match List.filter (fun a -> not (known a)) (List.tl args) with
  | [] -> ()
  | bad ->
      Fmt.epr "bench: unknown argument %s (usage: [--quick] [--jobs=N] \
               [--json=PATH])@."
        (String.concat " " bad);
      exit 2);
  if quick then begin
    memo_timing ~ng:16 ~t_max:2 ~reps:2 ();
    par_timing ~jobs ~trials:2_000 ();
    chaos_timing ~trials:2 ()
  end
  else begin
    memo_timing ();
    par_timing ~jobs ();
    chaos_timing ()
  end;
  benches ~quick ?json_path ()
