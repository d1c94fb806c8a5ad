(* Tests of the batch execution layer: the enumeration cache against the
   uncached oracle, [Executor.map]'s determinism at every chunk size and
   jobs value, the structured trace against the outcome it summarises, and
   rejected adversaries surfacing as [Error] values. *)

module Exact = Vv_dist.Exact
module Cache = Vv_dist.Cache
module Multinomial = Vv_dist.Multinomial
module Runner = Vv_core.Runner
module Strategy = Vv_core.Strategy
module Executor = Vv_exec.Executor
module Emit = Vv_exec.Emit
module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Trace = Vv_sim.Trace

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- cache vs uncached oracle --- *)

(* Random (n, probs, threshold) with n <= 12 and 2..4 options; probs from
   integer weights so they sum to 1 within Multinomial.create's 1e-9. *)
let dist_query_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    int_range 2 4 >>= fun m ->
    list_repeat m (int_range 1 9) >>= fun weights ->
    int_range (-1) (n + 1) >>= fun threshold ->
    let total = float_of_int (List.fold_left ( + ) 0 weights) in
    let p =
      Array.of_list (List.map (fun w -> float_of_int w /. total) weights)
    in
    return (n, p, threshold))

let dist_query_print (n, p, threshold) =
  Fmt.str "n=%d p=[%a] threshold=%d" n
    Fmt.(array ~sep:comma float)
    p threshold

let prop_cache_matches_exact =
  QCheck.Test.make ~count:200 ~name:"Cache.pr_gap_gt = Exact.pr_gap_gt"
    (QCheck.make ~print:dist_query_print dist_query_gen)
    (fun (n, p, threshold) ->
      let dist = Multinomial.create ~n ~p in
      let cached = Cache.pr_gap_gt dist ~threshold in
      let uncached = Exact.pr_gap_gt dist ~threshold in
      Float.abs (cached -. uncached) < 1e-9)

let test_cache_hit_accounting () =
  Cache.clear ();
  let dist = Vv_dist.Profiles.(distribution d2) in
  for t = 0 to 4 do
    ignore (Cache.pr_voting_validity dist ~t)
  done;
  let s = Cache.stats () in
  check_int "one enumeration" 1 s.Cache.misses;
  check_int "four O(1) lookups" 4 s.Cache.hits;
  check_int "one entry" 1 s.Cache.entries;
  (* The gap distribution itself is served from the same entry. *)
  let pmf = Cache.gap_distribution dist in
  check_int "pmf length n+1" (Multinomial.n dist + 1) (Array.length pmf);
  check_int "still one entry" 1 (Cache.stats ()).Cache.entries;
  Cache.clear ();
  check_int "cleared" 0 (Cache.stats ()).Cache.entries

let test_cache_edge_thresholds () =
  let dist = Multinomial.create ~n:6 ~p:[| 0.5; 0.5 |] in
  check (Alcotest.float 0.0) "threshold < 0 is certain" 1.0
    (Cache.pr_gap_gt dist ~threshold:(-1));
  check (Alcotest.float 0.0) "threshold >= n is impossible" 0.0
    (Cache.pr_gap_gt dist ~threshold:6)

(* Regression for the key canonicalisation: keys are the probabilities'
   IEEE-754 bits with -0.0 normalised to 0.0, so equal-valued
   distributions — including ones that spell a zero-mass tail cell 0.0 vs
   -0.0 — always share one entry, independent of float-comparison and
   hashing quirks of the previous raw [float list] key. *)
let test_cache_key_canonical () =
  Cache.clear ();
  let q p = ignore (Cache.pr_gap_gt (Multinomial.create ~n:8 ~p) ~threshold:2) in
  q [| 0.6; 0.4; 0.0 |];
  q [| 0.6; 0.4; -0.0 |];
  (* A fresh, independently built but equal-valued vector also hits. *)
  q [| 3.0 /. 5.0; 2.0 /. 5.0; 0.0 |];
  let s = Cache.stats () in
  check_int "one enumeration for the three spellings" 1 s.Cache.misses;
  check_int "two hits" 2 s.Cache.hits;
  check_int "one entry" 1 s.Cache.entries;
  (* Genuinely different parameters still miss. *)
  q [| 0.4; 0.6; 0.0 |];
  check_int "distinct values get their own entry" 2 (Cache.stats ()).Cache.entries;
  Cache.clear ()

(* --- batch determinism across chunk sizes --- *)

let batch_spec =
  Runner.simple_spec ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
    ~t:1 ~f:1
    (List.map Oid.of_int [ 0; 0; 0; 1; 2 ])

(* [count] runs of [spec] under derived seeds, fanned out by [map]. *)
let batch ?jobs ?chunk_size ?on_progress ~count ~seed spec =
  Executor.map ?jobs ?chunk_size ?on_progress ~count (fun i ->
      Runner.run_checked (Runner.with_seed (Executor.derive_seed ~seed i) spec))

(* One line per run: the honest outputs and the whole trace as JSON, or
   the rejection. *)
let render runs =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (function
            | Ok o ->
                Fmt.str "%a %s"
                  Fmt.(list ~sep:comma (option ~none:(any "-") Oid.pp))
                  o.Runner.outputs
                  (Json.to_string (Trace.to_json o.Runner.trace))
            | Error (`Invalid_adversary msg) -> "invalid: " ^ msg)
          runs))

let test_chunk_size_invariance () =
  let runs chunk_size = batch ~chunk_size ~count:40 ~seed:0xbadc batch_spec in
  let reference = render (runs 1) in
  List.iter
    (fun chunk_size ->
      check Alcotest.string
        (Fmt.str "chunk_size=%d byte-identical" chunk_size)
        reference
        (render (runs chunk_size)))
    [ 3; 7; 40; 1000 ];
  (* And the runs actually did something. *)
  let r = runs 7 in
  check_int "all trials ran" 40 (Array.length r);
  check_bool "some successes" true
    (Array.exists
       (function
         | Ok o -> o.Runner.termination && o.Runner.voting_validity_tb
         | Error _ -> false)
       r)

let test_generator_order_and_progress () =
  let seen = ref [] in
  let ticks = ref [] in
  let squares =
    Executor.map ~chunk_size:4
      ~on_progress:(fun p -> ticks := p.Executor.done_ :: !ticks)
      ~count:10
      (fun i ->
        seen := i :: !seen;
        i * i)
  in
  check (Alcotest.list Alcotest.int) "f applied in index order"
    (List.init 10 Fun.id) (List.rev !seen);
  check (Alcotest.list Alcotest.int) "progress after each chunk" [ 4; 8; 10 ]
    (List.rev !ticks);
  check (Alcotest.array Alcotest.int) "slot i holds f i"
    (Array.init 10 (fun i -> i * i))
    squares

let test_derive_seed_depends_only_on_index () =
  List.iter
    (fun i ->
      check_int "stable" (Executor.derive_seed ~seed:42 i)
        (Executor.derive_seed ~seed:42 i))
    [ 0; 1; 5; 100 ];
  check_bool "distinct indices differ" true
    (Executor.derive_seed ~seed:42 0 <> Executor.derive_seed ~seed:42 1);
  check_bool "distinct seeds differ" true
    (Executor.derive_seed ~seed:1 3 <> Executor.derive_seed ~seed:2 3)

(* Regression for the old [seed lxor (i * 0x9E3779B9)] mix: any pair
   [(s, i)] and [(s lxor (i * c) lxor (j * c), j)] collapsed to the same
   pre-hash value and therefore the same stream — e.g. index 1 under seed
   [s] equalled index 0 under seed [s lxor c].  The splitmix-of-splitmix
   derivation hashes the seed before the index is folded in, so no xor
   algebra on the inputs lines the streams up. *)
let test_derive_seed_no_xor_collisions () =
  let c = 0x9E3779B9 in
  List.iter
    (fun s ->
      check_bool "index 1 vs shifted seed at index 0" true
        (Executor.derive_seed ~seed:s 1
        <> Executor.derive_seed ~seed:(s lxor c) 0);
      check_bool "index 2 vs shifted seed at index 1" true
        (Executor.derive_seed ~seed:s 2
        <> Executor.derive_seed ~seed:(s lxor (2 * c) lxor c) 1))
    [ 0; 1; 42; 0x5eed; max_int ]

(* The derivation is part of the reproducibility contract: batches logged
   in EXPERIMENTS.md must replay bit-for-bit, so the exact values are
   pinned. *)
let test_derive_seed_golden () =
  List.iter
    (fun (seed, i, expect) ->
      check_int (Fmt.str "derive_seed ~seed:%d %d" seed i) expect
        (Executor.derive_seed ~seed i))
    [
      (42, 0, 2375575238713981129);
      (42, 1, 199654906051158098);
      (42, 2, 4588304528281974559);
      (0x5eed, 100, 1301434136221258189);
      (0, 0, 2080277311359033222);
    ]

(* --- domain-pool execution --- *)

(* Byte-identical runs at every (jobs, chunk_size): the executor's central
   determinism promise, and the suite `make check-parallel` runs. *)
let test_jobs_invariance () =
  let reference = render (batch ~jobs:1 ~count:60 ~seed:0x90b5 batch_spec) in
  List.iter
    (fun (jobs, chunk_size) ->
      check Alcotest.string
        (Fmt.str "jobs=%d chunk_size=%d byte-identical" jobs chunk_size)
        reference
        (render (batch ~jobs ~chunk_size ~count:60 ~seed:0x90b5 batch_spec)))
    [ (1, 5); (2, 64); (2, 7); (4, 64); (4, 1); (4, 13) ];
  (* Figure 1(b)'s protocol-run column draws every spec from one shared
     rng before the fan-out, so its rate is the same at every jobs. *)
  let rate jobs =
    Vv_analysis.Exp_fig1.empirical_success ~jobs ~trials:40 ~t:1
      ~rng:(Vv_prelude.Rng.create 0xf1b2)
      Vv_dist.Profiles.(distribution d2)
  in
  List.iter
    (fun jobs ->
      check (Alcotest.float 0.0)
        (Fmt.str "fig1b success rate, jobs=%d" jobs)
        (rate 1) (rate jobs))
    [ 2; 4 ]

let prop_jobs_and_chunks_invariant =
  QCheck.Test.make ~count:12
    ~name:"map byte-identical across jobs and chunk_size"
    QCheck.(
      make
        ~print:(fun (j, c, n) -> Fmt.str "jobs=%d chunk=%d trials=%d" j c n)
        Gen.(
          triple (int_range 1 4) (int_range 1 40) (int_range 5 30)))
    (fun (jobs, chunk_size, count) ->
      let seq = render (batch ~jobs:1 ~count ~seed:0xfeed batch_spec) in
      let par =
        render (batch ~jobs ~chunk_size ~count ~seed:0xfeed batch_spec)
      in
      String.equal seq par)

let test_parallel_progress_monotone () =
  let ticks = ref [] in
  let runs =
    batch ~jobs:4 ~chunk_size:5
      ~on_progress:(fun p -> ticks := p.Executor.done_ :: !ticks)
      ~count:37 ~seed:5 batch_spec
  in
  check_int "all instances ran" 37 (Array.length runs);
  let ticks = List.rev !ticks in
  check_bool "at least one tick" true (ticks <> []);
  check_int "last tick reports completion" 37 (List.nth ticks (List.length ticks - 1));
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "ticks non-decreasing" true (monotone ticks)

let test_jobs_validation () =
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Executor: negative jobs") (fun () ->
      ignore (Executor.map ~jobs:(-1) ~count:3 Fun.id));
  Alcotest.check_raises "chunk_size 0"
    (Invalid_argument "Executor.map: chunk_size must be positive") (fun () ->
      ignore (Executor.map ~chunk_size:0 ~count:3 Fun.id));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Executor.map: negative count") (fun () ->
      ignore (Executor.map ~count:(-1) Fun.id));
  (* jobs=0 resolves to "cores - 1" and must still run. *)
  let runs = batch ~jobs:0 ~count:5 ~seed:1 batch_spec in
  check_int "jobs=0 runs everything" 5 (Array.length runs)

(* Concurrent cache queries from several domains agree with the uncached
   oracle, and racing first queries never duplicate entries. *)
let test_cache_parallel_stress () =
  Cache.clear ();
  let dists =
    List.map
      (fun p -> Multinomial.create ~n:9 ~p)
      [
        [| 0.7; 0.1; 0.1; 0.1 |];
        [| 0.55; 0.25; 0.1; 0.1 |];
        [| 0.4; 0.3; 0.2; 0.1 |];
        [| 0.25; 0.25; 0.25; 0.25 |];
        [| 0.5; 0.5 |];
        [| 0.6; 0.4; 0.0 |];
      ]
  in
  let thresholds = [ -1; 0; 1; 2; 5; 9 ] in
  let oracle =
    List.map
      (fun d -> List.map (fun t -> Exact.pr_gap_gt d ~threshold:t) thresholds)
      dists
  in
  let rounds = 5 in
  let worker () =
    let ok = ref true in
    for _ = 1 to rounds do
      List.iter2
        (fun d expected ->
          List.iter2
            (fun t e ->
              if Float.abs (Cache.pr_gap_gt d ~threshold:t -. e) >= 1e-9 then
                ok := false)
            thresholds expected)
        dists oracle
    done;
    !ok
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  let agree = Array.for_all Fun.id (Array.map Domain.join domains) in
  check_bool "all domains agree with the Exact oracle" true agree;
  let s = Cache.stats () in
  check_int "no duplicate entries under racing inserts"
    (List.length dists) s.Cache.entries;
  check_int "every query accounted as hit or miss"
    (4 * rounds * List.length dists * List.length thresholds)
    (s.Cache.hits + s.Cache.misses);
  Cache.clear ()

(* --- trace vs outcome --- *)

let test_trace_consistent_with_outcome () =
  let o =
    Runner.simple ~protocol:Runner.Algo1 ~strategy:Strategy.Collude_second
      ~t:1 ~f:1
      (List.map Oid.of_int [ 0; 0; 0; 1; 2 ])
  in
  let tr = o.Runner.trace in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 tr.Trace.rounds in
  check_int "per-round honest sends sum to the total" tr.Trace.honest_msgs
    (sum (fun r -> r.Trace.honest_sent));
  check_int "per-round byz sends sum to the total" tr.Trace.byz_msgs
    (sum (fun r -> r.Trace.byz_sent));
  check_int "outcome honest msgs come from the trace" o.Runner.honest_msgs
    tr.Trace.honest_msgs;
  check_int "outcome byz msgs come from the trace" o.Runner.byz_msgs
    tr.Trace.byz_msgs;
  check_int "every executed round is recorded" o.Runner.rounds
    tr.Trace.total_rounds;
  check_bool "stall flag matches" o.Runner.stalled tr.Trace.stalled;
  (* decide_rounds agrees with the outcome's per-node decision rounds
     (honest ids are 0..ng-1 under simple_spec). *)
  List.iteri
    (fun id dr ->
      check (Alcotest.option Alcotest.int)
        (Fmt.str "decide round of node %d" id)
        dr
        (Trace.decide_round tr id))
    o.Runner.decision_rounds;
  (* Phase transitions were recorded from round 0 and end decided. *)
  (match Trace.phases_of tr 0 with
  | [] -> Alcotest.fail "no phase events for node 0"
  | first :: _ as evs ->
      check_int "first phase at round 0" 0 first.Trace.at_round;
      let last = List.nth evs (List.length evs - 1) in
      check Alcotest.string "terminal phase" "decided" last.Trace.phase);
  (* CSV emitter: one header plus one line per executed round. *)
  let lines =
    String.split_on_char '\n' (String.trim (Trace.to_csv tr))
  in
  check_int "csv lines" (tr.Trace.total_rounds + 1) (List.length lines);
  check Alcotest.string "csv header" Trace.csv_header (List.hd lines)

(* --- invalid adversary accounting --- *)

let equivocation_spec =
  (* Split_top2 equivocates per recipient; under Algorithm 4's local
     broadcast model the engine rejects it. *)
  Runner.simple_spec ~protocol:Runner.Algo4_local ~strategy:Strategy.Split_top2
    ~t:1 ~f:1
    (List.map Oid.of_int [ 0; 0; 0; 1; 2 ])

(* A batch of rejected adversaries never raises: each run is an [Error]. *)
let test_invalid_adversary_counted () =
  (match Runner.run_checked equivocation_spec with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ -> Alcotest.fail "expected Invalid_adversary from run_checked");
  let runs = batch ~chunk_size:2 ~count:5 ~seed:3 equivocation_spec in
  check_int "all runs counted" 5 (Array.length runs);
  check_bool "all flagged invalid" true
    (Array.for_all
       (function Error (`Invalid_adversary _) -> true | Ok _ -> false)
       runs)

(* --- emit formats --- *)

let test_emit_round_trip () =
  List.iter
    (fun f ->
      match Emit.of_string (Emit.to_string f) with
      | Some f' -> check_bool "round-trips" true (f = f')
      | None -> Alcotest.fail "of_string failed")
    Emit.all;
  check_bool "unknown rejected" true (Emit.of_string "xml" = None)

(* A table whose cells exercise every CSV quoting branch: commas, quotes,
   newlines, their combinations, and the unquoted plain/empty cases. *)
let gnarly_table () =
  let t =
    Vv_prelude.Table.create ~title:"gnarly"
      ~headers:[ "plain"; "comma,head"; "quote\"head" ]
      ()
  in
  Vv_prelude.Table.add_row t [ "a"; "x,y"; "say \"hi\"" ];
  Vv_prelude.Table.add_row t [ "line\nbreak"; ""; "both,\"and\"\nmore" ];
  t

let test_csv_escaping () =
  check Alcotest.string "rfc4180 quoting"
    ("plain,\"comma,head\",\"quote\"\"head\"\n"
   ^ "a,\"x,y\",\"say \"\"hi\"\"\"\n"
   ^ "\"line\nbreak\",,\"both,\"\"and\"\"\nmore\"\n")
    (Vv_prelude.Table.to_csv (gnarly_table ()))

(* [Emit.tables_string Json] must be ONE top-level JSON value (an array),
   not a stream of objects — consumers parse the report with a single
   [json.load].  The invariant is structural: exactly one '\n', at the
   end, and the payload is '[' ... ']'. *)
let test_json_one_top_level_value () =
  List.iter
    (fun tbls ->
      let s = Emit.tables_string Emit.Json tbls in
      let n = String.length s in
      check_bool "ends with newline" true (n > 0 && s.[n - 1] = '\n');
      let body = String.sub s 0 (n - 1) in
      check_bool "no interior newline" true
        (not (String.contains body '\n'));
      check_bool "top-level array" true
        (String.length body >= 2
        && body.[0] = '['
        && body.[String.length body - 1] = ']'))
    [ []; [ gnarly_table () ]; [ gnarly_table (); gnarly_table () ] ]

(* The string renderers are the CLI's source of truth for --out: check
   they agree with the printing formatter (Table) and the direct CSV
   rendering, and that concatenation over a list matches per-table
   rendering for the text formats. *)
let test_emit_strings_agree () =
  let t = gnarly_table () in
  check Alcotest.string "table = pp"
    (Format.asprintf "%a" Vv_prelude.Table.pp t)
    (Emit.table_string Emit.Table t);
  check Alcotest.string "csv = to_csv" (Vv_prelude.Table.to_csv t)
    (Emit.table_string Emit.Csv t);
  List.iter
    (fun fmt ->
      check Alcotest.string "tables = concat of table"
        (String.concat "" (List.map (Emit.table_string fmt) [ t; t ]))
        (Emit.tables_string fmt [ t; t ]))
    [ Emit.Table; Emit.Csv ]

let () =
  Alcotest.run "exec"
    [
      ( "cache",
        [
          QCheck_alcotest.to_alcotest prop_cache_matches_exact;
          Alcotest.test_case "hit/miss accounting" `Quick
            test_cache_hit_accounting;
          Alcotest.test_case "edge thresholds" `Quick
            test_cache_edge_thresholds;
          Alcotest.test_case "key canonicalisation (regression)" `Quick
            test_cache_key_canonical;
        ] );
      ( "executor",
        [
          Alcotest.test_case "chunk-size invariance (byte-identical)" `Quick
            test_chunk_size_invariance;
          Alcotest.test_case "generator order and progress" `Quick
            test_generator_order_and_progress;
          Alcotest.test_case "derived seeds" `Quick
            test_derive_seed_depends_only_on_index;
          Alcotest.test_case "derived seeds: no xor collisions (regression)"
            `Quick test_derive_seed_no_xor_collisions;
          Alcotest.test_case "derived seeds: golden values" `Quick
            test_derive_seed_golden;
          Alcotest.test_case "invalid adversary counted" `Quick
            test_invalid_adversary_counted;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs invariance (byte-identical)" `Quick
            test_jobs_invariance;
          QCheck_alcotest.to_alcotest prop_jobs_and_chunks_invariant;
          Alcotest.test_case "progress monotone under domains" `Quick
            test_parallel_progress_monotone;
          Alcotest.test_case "jobs validation and jobs=0" `Quick
            test_jobs_validation;
          Alcotest.test_case "cache stress across domains" `Quick
            test_cache_parallel_stress;
        ] );
      ( "trace",
        [
          Alcotest.test_case "trace consistent with outcome" `Quick
            test_trace_consistent_with_outcome;
        ] );
      ( "emit",
        [
          Alcotest.test_case "format round-trip" `Quick test_emit_round_trip;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "json: one top-level value" `Quick
            test_json_one_top_level_value;
          Alcotest.test_case "string renderers agree" `Quick
            test_emit_strings_agree;
        ] );
    ]
