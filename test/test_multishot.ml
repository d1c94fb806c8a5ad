(* Tests of the multi-shot voting ledger: speaker rotation, stall retries,
   electorate adjustment, and the ledger-level safety invariant.  The
   ledger is an {!Engine}; its slots are decided by {!Ledger.compute}. *)

module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Runner = Vv_core.Runner

let o = Oid.of_int
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let opt_testable = Alcotest.testable Oid.pp Oid.equal

(* 6 honest nodes preferring a decisive winner per slot + 1 Byzantine. *)
let decisive_inputs winner =
  List.init 6 (fun i -> if i = 5 then o ((winner + 1) mod 3) else o winner)
  @ [ o 0 ]

(* A fresh ledger's first slot, and the ledger holding it. *)
let decide_first cfg ~subject inputs =
  let ledger = Engine.create cfg in
  ignore (Engine.submit ledger ~subject inputs);
  match Engine.step ledger with
  | [ slot ] -> (slot, ledger)
  | _ -> Alcotest.fail "one submission decides one slot"

let test_all_slots_decided () =
  let cfg = Ledger.config ~byzantine:[ 6 ] ~n:7 ~t:1 () in
  let log, stats =
    Engine.run cfg
      (List.init 5 (fun i -> (i + 1, decisive_inputs ((i + 1) mod 3))))
  in
  check_int "height" 5 stats.Engine.decided;
  check_int "all committed" 5 stats.Engine.committed;
  check_bool "safety invariant" true stats.Engine.all_valid;
  List.iteri
    (fun i (s : Ledger.slot) ->
      check_int "indices in order" i s.Ledger.index;
      check (Alcotest.option opt_testable) "decision matches electorate"
        (Some (o ((i + 1) mod 3)))
        s.Ledger.decision)
    log

let test_byzantine_speaker_rotated_past () =
  (* Node 0 is Byzantine and is the first speaker: slot 0 stalls under it
     and commits under speaker 1. *)
  let inputs = o 0 :: List.init 6 (fun _ -> o 1) in
  let cfg = Ledger.config ~byzantine:[ 0 ] ~n:7 ~t:1 () in
  let slot = Ledger.compute cfg ~index:0 ~subject:9 inputs in
  check_bool "committed" true (slot.Ledger.decision <> None);
  check_int "second attempt" 2 slot.Ledger.attempts;
  check_int "speaker rotated" 1 slot.Ledger.speaker;
  check opt_testable "plurality" (o 1) (Option.get slot.Ledger.decision)

let test_thin_margin_adjusted () =
  (* SCT stalls on the thin electorate; Rotate_and_adjust converges. *)
  let inputs = List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ [ o 0; o 0 ] in
  let cfg =
    Ledger.config ~byzantine:[ 7; 8 ]
      ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 8)) ~n:9
      ~t:2 ()
  in
  let slot, ledger = decide_first cfg ~subject:1 inputs in
  check_bool "eventually committed" true (slot.Ledger.decision <> None);
  check_bool "needed retries" true (slot.Ledger.attempts > 1);
  check_bool "safety invariant" true (Engine.all_committed_valid ledger)

let test_no_retry_skips () =
  let inputs = List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ [ o 0; o 0 ] in
  let cfg =
    Ledger.config ~byzantine:[ 7; 8 ] ~retry:Ledger.No_retry ~n:9 ~t:2 ()
  in
  let slot, ledger = decide_first cfg ~subject:1 inputs in
  check (Alcotest.option opt_testable) "skipped" None slot.Ledger.decision;
  check_int "single attempt" 1 slot.Ledger.attempts;
  check_int "nothing committed" 0 (Engine.stats ledger).Engine.committed;
  check_bool "safety invariant still holds" true
    (Engine.all_committed_valid ledger)

let test_algo1_ledger_can_commit_invalid () =
  (* With Algorithm 1 instead of SCT, a thin slot commits the adversary's
     value and the ledger invariant reports it. *)
  let inputs = List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ List.init 3 (fun _ -> o 0) in
  let cfg =
    Ledger.config ~byzantine:[ 7; 8; 9 ] ~protocol:Runner.Algo1 ~n:10 ~t:3 ()
  in
  let slot, ledger = decide_first cfg ~subject:1 inputs in
  check_bool "committed" true (slot.Ledger.decision <> None);
  check_bool "flagged invalid" false slot.Ledger.valid;
  check_bool "invariant reports violation" false
    (Engine.all_committed_valid ledger)

let test_crash_speaker_rotated_past () =
  (* Node 0 is an unreliable host that crashes at round 0 of every
     attempt; as first speaker it stalls slot 0, which then commits under
     speaker 1 (the crashed node is simply a silent participant there). *)
  let inputs = List.init 7 (fun _ -> o 1) in
  let cfg =
    Ledger.config ~crash:[ (0, 0, []) ] ~strategy:Vv_core.Strategy.Passive
      ~n:7 ~t:1 ()
  in
  let slot, ledger = decide_first cfg ~subject:4 inputs in
  check_bool "committed" true (slot.Ledger.decision <> None);
  check_int "second attempt" 2 slot.Ledger.attempts;
  check_int "rotated to node 1" 1 slot.Ledger.speaker;
  check_bool "safety" true (Engine.all_committed_valid ledger)

let test_determinism () =
  let go () =
    let cfg = Ledger.config ~byzantine:[ 6 ] ~n:7 ~t:1 ~seed:77 () in
    Engine.run cfg (List.init 4 (fun s -> (s, decisive_inputs (s mod 2))))
  in
  check_bool "replays identically" true (go () = go ())

let test_validation () =
  let cfg = Ledger.config ~n:5 ~t:1 () in
  Alcotest.check_raises "inputs arity"
    (Invalid_argument "Ledger.compute: inputs must have length n") (fun () ->
      ignore (Ledger.compute cfg ~index:0 ~subject:1 [ o 0 ]));
  Alcotest.check_raises "submit arity"
    (Invalid_argument "Engine.submit: inputs must have length n") (fun () ->
      ignore (Engine.submit (Engine.create cfg) ~subject:1 [ o 0 ]));
  Alcotest.check_raises "byz range"
    (Invalid_argument "Ledger.config: byzantine id out of range") (fun () ->
      ignore (Ledger.config ~byzantine:[ 9 ] ~n:5 ~t:1 ()))

(* --- slot independence (the seeding bugfix) --- *)

module Server = Vv_serve.Server

(* A mix of decisive and thin electorates so attempt counts vary. *)
let mixed_inputs i =
  if i mod 3 = 2 then List.map o [ 0; 0; 0; 1; 1; 2; 3 ] @ [ o 0; o 0 ]
  else
    List.init 7 (fun j -> if j = 6 then o ((i + 1) mod 3) else o (i mod 3))
    @ [ o 0; o 0 ]

let mixed_cfg ?retry () =
  Ledger.config ~byzantine:[ 7; 8 ]
    ~retry:
      (Option.value retry
         ~default:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6)))
    ~n:9 ~t:2 ~seed:0xabc ()

(* The sequential ledger: slot [i] is [compute] at index [i]. *)
let sequential cfg reqs =
  List.mapi
    (fun index (subject, inputs) -> Ledger.compute cfg ~index ~subject inputs)
    reqs

let test_slot_independence () =
  (* The regression: slot k's outcome must not depend on slots < k having
     run. Before the per-slot derive_seed fix, every attempt pulled from
     one shared RNG stream, so a retry in slot 0 shifted every later
     slot's seeds. *)
  let cfg = mixed_cfg () in
  let with_prefix prefix_len =
    (* The probe subject lands at index [prefix_len] of the ledger. *)
    let reqs = List.init prefix_len (fun i -> (i, mixed_inputs i)) in
    let log, _ = Engine.run cfg (reqs @ [ (99, mixed_inputs 2) ]) in
    List.nth log prefix_len
  in
  let direct index =
    Ledger.compute cfg ~index ~subject:99 (mixed_inputs 2)
  in
  List.iter
    (fun len ->
      let appended = with_prefix len in
      let computed = direct len in
      check_bool
        (Fmt.str "engine slot after %d slots == pure compute" len)
        true
        (appended = computed))
    [ 0; 1; 2; 3; 5 ];
  (* And the same (index, subject, inputs) triple decides identically no
     matter what ran before it — retries in earlier slots included. *)
  let a = direct 4 and b = direct 4 in
  check_bool "compute is pure" true (a = b)

let test_engine_matches_sequential () =
  (* batch=1 engine == compute at each index in turn, byte for byte. *)
  let cfg = mixed_cfg () in
  let reqs = List.init 9 (fun i -> (i, mixed_inputs i)) in
  let log, stats = Engine.run ~batch:1 ~jobs:1 cfg reqs in
  check_bool "batch=1 == sequential" true (log = sequential cfg reqs);
  check_int "stats decided" 9 stats.Engine.decided

let test_engine_jobs_invariance () =
  (* Sharded across all cores == single domain, at several batch sizes. *)
  let cfg = mixed_cfg () in
  let reqs = List.init 13 (fun i -> (i, mixed_inputs i)) in
  List.iter
    (fun batch ->
      let log1, stats1 = Engine.run ~batch ~jobs:1 cfg reqs in
      let log0, stats0 = Engine.run ~batch ~jobs:0 cfg reqs in
      check_bool (Fmt.str "batch %d: logs identical" batch) true (log0 = log1);
      check_bool (Fmt.str "batch %d: stats identical" batch) true
        (stats0 = stats1))
    [ 1; 3; 4; 8 ]

let test_engine_step_flush () =
  let cfg = mixed_cfg () in
  let e = Engine.create ~batch:3 cfg in
  ignore (Engine.submit e ~subject:0 (mixed_inputs 0));
  ignore (Engine.submit e ~subject:1 (mixed_inputs 1));
  check_int "partial slot waits" 0 (List.length (Engine.step e));
  check_int "pending" 2 (Engine.pending e);
  ignore (Engine.submit e ~subject:2 (mixed_inputs 2));
  check_int "full slot decides" 3 (List.length (Engine.step e));
  ignore (Engine.submit e ~subject:3 (mixed_inputs 3));
  check_int "flush forces partial" 1 (List.length (Engine.flush e));
  check_int "height" 4 (Engine.height e);
  check_int "positions in order" 3
    (List.nth (Engine.decisions e) 3).Ledger.index

let test_engine_retry_under_pipelining () =
  (* Thin electorates force retries; the pipelined makespan must stay
     within [max slot duration, sequential sum] and the decisions must
     still match the sequential ledger. *)
  let cfg = mixed_cfg () in
  let reqs = List.init 12 (fun i -> (i, mixed_inputs i)) in
  let log, stats = Engine.run ~batch:4 ~jobs:0 cfg reqs in
  check_bool "some slot retried" true (stats.Engine.attempts_total > 12);
  check_bool "pipelining helps" true
    (stats.Engine.rounds_pipelined < stats.Engine.rounds_sequential);
  check_bool "pipelining is sound" true
    (stats.Engine.rounds_pipelined <= stats.Engine.rounds_sequential
    && stats.Engine.rounds_sequential <= stats.Engine.rounds_instances);
  (* Batching changes slot geometry, not per-position outcomes: each
     position's seeds derive from its global index either way. *)
  check_bool "same decisions as sequential" true
    (List.map (fun (s : Ledger.slot) -> (s.Ledger.index, s.Ledger.decision)) log
    = List.map
        (fun (s : Ledger.slot) -> (s.Ledger.index, s.Ledger.decision))
        (sequential cfg reqs))

let test_engine_snapshot_roundtrip () =
  let cfg = mixed_cfg () in
  let reqs = List.init 10 (fun i -> (i, mixed_inputs i)) in
  let e = Engine.create ~batch:4 cfg in
  List.iter (fun (s, inputs) -> ignore (Engine.submit e ~subject:s inputs)) reqs;
  ignore (Engine.step e);
  ignore (Engine.flush e);
  (* Round-trip through the daemon's decision log on disk. *)
  let path = Filename.temp_file "vv-multishot" ".log" in
  Sys.remove path;
  Server.write_snapshot e (Some path);
  let load cfg = Server.load_engine ~batch:4 ~snapshot:(Some path) cfg in
  let e' =
    match load cfg with
    | Ok e' -> e'
    | Error m -> Alcotest.failf "load_engine: %s" m
  in
  check_int "height restored" (Engine.height e) (Engine.height e');
  check_bool "log restored" true (Engine.decisions e = Engine.decisions e');
  check_bool "stats restored" true (Engine.stats e = Engine.stats e');
  (* Catch-up: a consumer at height 6 receives exactly positions 6.. *)
  let tail = Engine.decisions_from e' 6 in
  check_int "catch-up length" 4 (List.length tail);
  check_int "catch-up starts at 6" 6 (List.hd tail).Ledger.index;
  (* A log from a different config is refused. *)
  let other = Ledger.config ~byzantine:[ 7; 8 ] ~n:9 ~t:2 ~seed:1 () in
  check_bool "seed mismatch refused" true
    (match load other with Error _ -> true | Ok _ -> false);
  Sys.remove path

(* [decisions_from] walks the newest slots only; it must agree with
   filtering the whole log, for every [from] in and around the log. *)
let prop_decisions_from_is_filter =
  QCheck.Test.make ~count:200 ~name:"decisions_from = filter decisions"
    QCheck.(pair (int_bound 40) (int_range (-3) 45))
    (fun (height, from) ->
      let e = Engine.create ~batch:3 (mixed_cfg ()) in
      for index = 0 to height - 1 do
        let s =
          {
            Ledger.index;
            subject = 100 + index;
            decision = Some (o (index mod 3));
            speaker = index mod 9;
            attempts = 1;
            valid = true;
            rounds_total = 5;
          }
        in
        ignore (Engine.append_committed e s)
      done;
      Engine.decisions_from e from
      = List.filter
          (fun (s : Ledger.slot) -> s.Ledger.index >= from)
          (Engine.decisions e))

let test_engine_append_committed () =
  (* A follower building its log purely from a primary's decision stream
     must converge to the same committed list. *)
  let cfg = mixed_cfg () in
  let reqs = List.init 10 (fun i -> (i, mixed_inputs i)) in
  let log, _ = Engine.run ~batch:4 ~jobs:1 cfg reqs in
  let follower = Engine.create ~batch:4 cfg in
  List.iter
    (fun s ->
      match Engine.append_committed follower s with
      | Ok `Applied -> ()
      | Ok `Stale -> Alcotest.fail "fresh slot marked stale"
      | Error m -> Alcotest.failf "append: %s" m)
    log;
  check_bool "replicated log identical" true (Engine.decisions follower = log);
  check_int "height follows" 10 (Engine.height follower);
  (* Replaying an already-applied slot is stale, not an error (overlap
     after a re-catchup). *)
  (match Engine.append_committed follower (List.hd log) with
  | Ok `Stale -> ()
  | _ -> Alcotest.fail "replay should be stale");
  check_int "stale replay does not grow the log" 10 (Engine.height follower);
  (* A gap means the stream desynced and must be refused. *)
  let far = Ledger.compute cfg ~index:15 ~subject:15 (mixed_inputs 15) in
  check_bool "gap refused" true
    (match Engine.append_committed follower far with
    | Error _ -> true
    | Ok _ -> false);
  (* Mixing local pending submissions with replication is refused. *)
  ignore (Engine.submit follower ~subject:99 (mixed_inputs 0));
  let next = Ledger.compute cfg ~index:10 ~subject:10 (mixed_inputs 10) in
  check_bool "pending guard" true
    (match Engine.append_committed follower next with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "multishot"
    [
      ( "ledger",
        [
          Alcotest.test_case "all slots decided" `Quick test_all_slots_decided;
          Alcotest.test_case "byzantine speaker rotated past" `Quick
            test_byzantine_speaker_rotated_past;
          Alcotest.test_case "crash speaker rotated past" `Quick
            test_crash_speaker_rotated_past;
          Alcotest.test_case "thin margin adjusted (V-B)" `Quick
            test_thin_margin_adjusted;
          Alcotest.test_case "no-retry skips" `Quick test_no_retry_skips;
          Alcotest.test_case "algo1 ledger flags invalid commits" `Quick
            test_algo1_ledger_can_commit_invalid;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "slot independence (seeding regression)" `Quick
            test_slot_independence;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batch=1 matches sequential ledger" `Quick
            test_engine_matches_sequential;
          Alcotest.test_case "jobs invariance (1 vs all cores)" `Quick
            test_engine_jobs_invariance;
          Alcotest.test_case "step waits, flush forces" `Quick
            test_engine_step_flush;
          Alcotest.test_case "retry under pipelining" `Quick
            test_engine_retry_under_pipelining;
          Alcotest.test_case "append_committed replication" `Quick
            test_engine_append_committed;
          Alcotest.test_case "snapshot round-trip and catch-up" `Quick
            test_engine_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_decisions_from_is_filter;
        ] );
    ]
