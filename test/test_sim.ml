(* Tests of the simulation engine: delivery, crash filtering, communication
   model enforcement, delays, determinism and stall reporting. *)

open Vv_sim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A toy flood protocol: broadcast the input at round 0, record every
   arrival with its round, decide on the full log at [decide_round]. *)
module Flood = struct
  type input = int
  type msg = int
  type output = (int * int * int) list (* (arrival round, src, value) *)
  type state = { log : output; decided : output option }

  let name = "flood"
  let decide_round = 6
  let equal_msg = Int.equal

  let init (_ : Protocol.ctx) v ~outbox =
    Outbox.broadcast outbox v;
    { log = []; decided = None }

  let step (_ : Protocol.ctx) st ~round ~inbox ~outbox:_ =
    let log =
      st.log
      @ List.rev (Inbox.fold (fun acc src v -> (round, src, v) :: acc) [] inbox)
    in
    let decided =
      if round >= decide_round && st.decided = None then Some log else st.decided
    in
    { log; decided }

  let output st = st.decided
  let phase st = if st.decided = None then "flood" else "done"
  let inert _ = false
end

module E = Engine.Make (Flood)

let values res =
  (* Per honest node: sorted (src, value) pairs seen. *)
  List.map
    (fun out ->
      match out with
      | None -> []
      | Some log -> List.sort compare (List.map (fun (_, s, v) -> (s, v)) log))
    (E.honest_outputs res)

let test_full_delivery () =
  let cfg = Config.make ~n:4 ~t_max:1 () in
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  let expected = List.init 4 (fun i -> (i, 100 + i)) in
  List.iter
    (fun seen -> check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "every node sees every input (incl. self)" expected seen)
    (values res);
  check_int "honest messages" 16 res.trace.Trace.honest_msgs;
  check_bool "not stalled" false res.stalled

let test_crash_mid_broadcast () =
  (* Node 2 crashes while broadcasting at round 0: only node 0 receives its
     vote — the Lemma 4 scenario where X_i <> X_G. *)
  let faults =
    [| Fault.Honest; Fault.Honest; Fault.Crash { at_round = 0; deliver_to = [ 0 ] } |]
  in
  let cfg = Config.make ~n:3 ~t_max:1 ~faults ()
  in
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  (match values res with
  | [ seen0; seen1 ] ->
      check_bool "node0 got crash vote" true (List.mem (2, 102) seen0);
      check_bool "node1 missed crash vote" false (List.mem (2, 102) seen1)
  | _ -> Alcotest.fail "expected two honest outputs");
  check_int "f counted" 1 (Config.faulty_count cfg)

let test_crashed_node_silent_after () =
  (* A node crashing at round 0 sends nothing in later rounds; with an empty
     deliver_to it is silent from the start. *)
  let faults =
    [| Fault.Honest; Fault.Crash { at_round = 0; deliver_to = [] }; Fault.Honest |]
  in
  let cfg = Config.make ~n:3 ~t_max:1 ~faults () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  List.iter
    (fun seen -> check_bool "no votes from crashed" false (List.mem_assoc 1 seen))
    (values res)

let test_byzantine_equivocation_p2p_allowed () =
  let cfg = Config.with_byzantine ~n:4 ~t_max:1 [ 3 ] () in
  let adversary =
    Adversary.named "equivocate" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.init view.Adversary.n (fun dst ->
              { Adversary.src = 3; dst; msg = 900 + dst }))
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  (match values res with
  | seen0 :: _ -> check_bool "per-recipient message" true (List.mem (3, 900) seen0)
  | [] -> Alcotest.fail "no outputs");
  check_int "byz messages counted" 4 res.trace.Trace.byz_msgs

let test_local_broadcast_blocks_equivocation () =
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "equivocate" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.init view.Adversary.n (fun dst ->
              { Adversary.src = 3; dst; msg = 900 + dst }))
  in
  (* The result-returning run reports the violation as an Error... *)
  (match E.run cfg ~inputs:(fun id -> id) ~adversary () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ ->
      Alcotest.fail "equivocation should be rejected under local broadcast");
  (* ...and run_exn raises. *)
  (try
     ignore (E.run_exn cfg ~inputs:(fun id -> id) ~adversary ());
     Alcotest.fail "equivocation should be rejected under local broadcast"
   with Engine.Invalid_adversary _ -> ());
  (* Partial broadcast (not reaching everyone) is rejected too. *)
  let partial =
    Adversary.named "partial" (fun view ->
        if view.Adversary.round <> 0 then []
        else [ { Adversary.src = 3; dst = 0; msg = 7 } ])
  in
  match E.run cfg ~inputs:(fun id -> id) ~adversary:partial () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ ->
      Alcotest.fail "partial broadcast should be rejected under local broadcast"

let test_local_broadcast_identical_ok () =
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.broadcast_each_round ~name:"same" ~when_round:(fun r -> r = 0)
      (fun ~src:_ _view -> Some 777)
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  List.iter
    (fun seen -> check_bool "all received 777" true (List.mem (3, 777) seen))
    (values res)

let test_local_broadcast_two_distinct_broadcasts_ok () =
  (* Honest nodes may emit several envelopes per round, each broadcast to
     the whole neighbourhood; the adversary validator must grant Byzantine
     nodes the same right.  The old validator required all of a sender's
     messages in a round to be identical, conflating two distinct uniform
     broadcasts with per-recipient equivocation — found by the exhaustive
     checker on Vote_and_propose scripts. *)
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~n:4 ~t_max:1 [ 3 ] ()
  in
  let adversary =
    Adversary.named "two-broadcasts" (fun view ->
        if view.Adversary.round <> 0 then []
        else
          List.concat_map
            (fun msg ->
              List.map
                (fun dst -> { Adversary.src = 3; dst; msg })
                (view.Adversary.reach 3))
            [ 701; 702 ])
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary () in
  List.iter
    (fun seen ->
      check_bool "first broadcast delivered" true (List.mem (3, 701) seen);
      check_bool "second broadcast delivered" true (List.mem (3, 702) seen))
    (values res)

let test_adversary_from_honest_rejected () =
  let cfg = Config.with_byzantine ~n:4 ~t_max:1 [ 3 ] () in
  let adversary =
    Adversary.named "impersonate" (fun view ->
        if view.Adversary.round <> 0 then []
        else [ { Adversary.src = 0; dst = 1; msg = 1 } ])
  in
  match E.run cfg ~inputs:(fun id -> id) ~adversary () with
  | Error (`Invalid_adversary reason) ->
      check_bool "reason names the node" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "sending from honest id must be rejected"

let test_uniform_delay_bounds () =
  let cfg = Config.make ~n:5 ~t_max:1 ~delay:(Delay.Uniform { lo = 1; hi = 3 }) () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  List.iter
    (fun out ->
      match out with
      | None -> Alcotest.fail "undecided"
      | Some log ->
          check_int "all messages arrive" 5 (List.length log);
          List.iter
            (fun (round, _, _) ->
              check_bool "arrival within bounds" true (round >= 1 && round <= 3))
            log)
    (E.honest_outputs res)

let test_determinism () =
  let run () =
    let cfg =
      Config.make ~n:6 ~t_max:1 ~delay:(Delay.Uniform { lo = 1; hi = 4 }) ~seed:99 ()
    in
    E.run_exn cfg ~inputs:(fun id -> id * 3) ()
  in
  let a = run () and b = run () in
  check_bool "same outputs" true (E.honest_outputs a = E.honest_outputs b);
  check_int "same rounds" a.rounds_used b.rounds_used

(* A protocol that never decides must be reported as stalled at
   max_rounds. *)
module Mute = struct
  type input = unit
  type msg = unit
  type output = unit
  type state = unit

  let name = "mute"
  let equal_msg () () = true
  let init _ () ~outbox:_ = ()
  let step _ () ~round:_ ~inbox:_ ~outbox:_ = ()
  let output () = None
  let phase () = "mute"
  let inert () = true
end

let test_stall_reported () =
  let module EM = Engine.Make (Mute) in
  let cfg = Config.make ~n:3 ~t_max:0 ~max_rounds:10 () in
  let res = EM.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_bool "stalled" true res.EM.stalled;
  check_int "ran to cutoff" 10 res.EM.rounds_used

(* Regression for the max_rounds off-by-one: the old loop ran
   [0 .. max_rounds] — max_rounds + 1 rounds — so a stalled run recorded
   max_rounds + 1 executed rounds in its trace and [rounds_used] disagreed
   with the trace's [total_rounds].  The fixed convention (engine.ml header)
   is: at most [max_rounds] rounds execute, and [rounds_used] counts them. *)
let test_max_rounds_is_a_round_budget () =
  let module EM = Engine.Make (Mute) in
  let budget = 7 in
  let cfg = Config.make ~n:2 ~t_max:0 ~max_rounds:budget () in
  let res = EM.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_int "exactly max_rounds rounds executed" budget
    res.EM.trace.Trace.total_rounds;
  check_int "rounds_used equals the trace's total_rounds" budget
    res.EM.rounds_used;
  (* Every recorded round index stays inside 0 .. max_rounds - 1. *)
  List.iter
    (fun (r : Trace.round_record) ->
      check_bool "round index within budget" true
        (r.Trace.round >= 0 && r.Trace.round < budget))
    res.EM.trace.Trace.rounds

(* --- the shared quiet tail --- *)

(* A never-quiescent twin of [a]: same name and actions, but it never
   lets the engine fast-forward, so every round of a run against it is
   stepped and recorded one by one. *)
let stepping (a : 'msg Adversary.t) =
  { a with Adversary.passive = false; quiescent = (fun () -> false) }

let last l = List.nth l (List.length l - 1)

let check_same_trace what (want : Trace.snapshot) (got : Trace.snapshot) =
  check Alcotest.string (what ^ ": csv") (Trace.to_csv want) (Trace.to_csv got);
  check Alcotest.string (what ^ ": json")
    (Vv_prelude.Json.to_string (Trace.to_json want))
    (Vv_prelude.Json.to_string (Trace.to_json got));
  check_bool (what ^ ": snapshots equal") true (want = got)

(* A fast-forwarded stall records its quiet rounds as one shared tail;
   it must equal the stepped run record for record, and a second run
   must end in the very same records (the O(1) path was taken). *)
let test_quiet_tail_mute () =
  let module EM = Engine.Make (Mute) in
  List.iter
    (fun max_rounds ->
      let what = Fmt.str "mute, max_rounds %d" max_rounds in
      let cfg = Config.make ~n:3 ~t_max:0 ~max_rounds () in
      let run adversary = EM.run_exn cfg ~inputs:(fun _ -> ()) ~adversary () in
      let fast = run Adversary.passive in
      let stepped = run (stepping Adversary.passive) in
      check_same_trace what stepped.EM.trace fast.EM.trace;
      check_int (what ^ ": rounds_used") max_rounds fast.EM.rounds_used;
      check_int (what ^ ": stepped rounds_used") max_rounds
        stepped.EM.rounds_used;
      check_bool (what ^ ": stalled") true (fast.EM.stalled && stepped.EM.stalled);
      let again = run Adversary.passive in
      check_bool (what ^ ": tail shared") true
        (last again.EM.trace.Trace.rounds == last fast.EM.trace.Trace.rounds);
      check_bool (what ^ ": twin stepped") false
        (last stepped.EM.trace.Trace.rounds == last fast.EM.trace.Trace.rounds))
    [ 2; 7; 60; 200 ]

(* Chatters for [k] rounds, then falls silent for good; node 0 decides at
   once when asked to.  A burst of [k] rounds ends in a quiet tail from
   round [k + 1] (round 1 when [k = 0]): the last broadcast is delivered a
   round after it is sent. *)
module Burst = struct
  type input = int * bool  (* rounds of chatter, decides at once *)
  type msg = int
  type output = unit
  type state = { left : int; decided : bool }

  let name = "burst"
  let equal_msg = Int.equal

  let init _ (k, decided) ~outbox =
    if k > 0 then Outbox.broadcast outbox k;
    { left = max 0 (k - 1); decided }

  let step _ st ~round:_ ~inbox:_ ~outbox =
    if st.left = 0 then st
    else begin
      Outbox.broadcast outbox st.left;
      { st with left = st.left - 1 }
    end

  let output st = if st.decided then Some () else None
  let phase st = if st.left > 0 then "burst" else "quiet"
  let inert st = st.left = 0
end

let tail_start k = if k = 0 then 1 else k + 1

(* Runs that share a table key (budget, decided total) but start their
   tails at different rounds: the table is first filled from the middle,
   then further down, then read where it is already filled; a second key
   differs only in the decided total.  Each run's tail is shared from its
   own start on with every earlier run of its key, and the round before
   it is the run's own. *)
let test_quiet_tail_start_rounds () =
  let module EB = Engine.Make (Burst) in
  let max_rounds = 30 in
  let cfg = Config.make ~n:3 ~t_max:0 ~max_rounds () in
  let run ~k ~decides adversary =
    EB.run_exn cfg ~inputs:(fun id -> (k, decides && id = 0)) ~adversary ()
  in
  let earlier = Hashtbl.create 4 in
  List.iter
    (fun (k, decides) ->
      let what = Fmt.str "burst of %d, decides %b" k decides in
      let fast = run ~k ~decides Adversary.passive in
      let stepped = run ~k ~decides (stepping Adversary.passive) in
      check_same_trace what stepped.EB.trace fast.EB.trace;
      check_int (what ^ ": rounds_used") max_rounds fast.EB.rounds_used;
      check_bool (what ^ ": stalled") true fast.EB.stalled;
      let rounds = fast.EB.trace.Trace.rounds in
      check_int (what ^ ": records") max_rounds (List.length rounds);
      check_int (what ^ ": decided total") (if decides then 1 else 0)
        (last rounds).Trace.decided_total;
      let start = tail_start k in
      let runs = Option.value ~default:[] (Hashtbl.find_opt earlier decides) in
      List.iter
        (fun (start', rounds') ->
          let shared i = List.nth rounds i == List.nth rounds' i in
          check_bool (what ^ ": tail shared") true (shared (max start start'));
          check_bool (what ^ ": own round before the tail") false
            (shared (start - 1)))
        runs;
      Hashtbl.replace earlier decides ((start, rounds) :: runs))
    [ (3, false); (0, false); (1, false); (7, false); (3, true); (0, true) ]

(* A checkpoint taken at any round before the fast-forward resumes to
   the uninterrupted run, quiet tail included, and can be resumed again. *)
let test_quiet_tail_resume () =
  let module EB = Engine.Make (Burst) in
  let cfg = Config.make ~n:3 ~t_max:0 ~max_rounds:40 () in
  let inputs id = (4, id = 1) in
  let whole = EB.run_exn cfg ~inputs () in
  for p = 0 to tail_start 4 - 1 do
    let what = Fmt.str "paused at round %d" p in
    match
      EB.run_prefix cfg ~inputs ~copy:Fun.id
        ~pause:(fun view -> view.Adversary.round = p)
        ()
    with
    | Error _ -> Alcotest.fail what
    | Ok (EB.Finished _) -> Alcotest.failf "%s: finished before the pause" what
    | Ok (EB.Paused cp) ->
        List.iter
          (fun attempt ->
            match EB.resume cp () with
            | Ok (EB.Finished res) ->
                check_same_trace (what ^ attempt) whole.EB.trace res.EB.trace;
                check_int (what ^ attempt ^ ": rounds_used")
                  whole.EB.rounds_used res.EB.rounds_used
            | Ok (EB.Paused _) | Error _ -> Alcotest.fail (what ^ attempt))
          [ ", first resume"; ", second resume" ]
  done

(* The builder: a quiet tail equals one quiet record per round, in both
   schemas, and ends the run. *)
let test_quiet_tail_builder () =
  List.iter
    (fun chaos ->
      let make () =
        let b = Trace.builder ~chaos ~protocol:"p" ~adversary:"a" ~n:4 ~t:1 () in
        Trace.record_decide b ~round:1 ~node:2;
        Trace.record_round b ~round:0 ~honest_sent:12 ~byz_sent:3 ~dropped:1
          ~duplicated:0 ~retransmitted:0 ~newly_decided:[];
        Trace.record_round b ~round:1 ~honest_sent:4 ~byz_sent:0 ~dropped:0
          ~duplicated:2 ~retransmitted:1 ~newly_decided:[ 2 ];
        b
      in
      let stepped = make () and fast = make () in
      for round = 2 to 8 do
        Trace.record_round stepped ~round ~honest_sent:0 ~byz_sent:0 ~dropped:0
          ~duplicated:0 ~retransmitted:0 ~newly_decided:[]
      done;
      Trace.record_quiet_tail fast ~from:2 ~rounds:9;
      let what = Fmt.str "chaos %b" chaos in
      let s = Trace.snapshot fast ~stalled:true in
      check_same_trace what (Trace.snapshot stepped ~stalled:true) s;
      check_int (what ^ ": total_rounds") 9 s.Trace.total_rounds;
      Alcotest.check_raises (what ^ ": nothing after the tail")
        (Invalid_argument "Trace.record_round: the run ended in a quiet tail")
        (fun () ->
          Trace.record_round fast ~round:9 ~honest_sent:0 ~byz_sent:0
            ~dropped:0 ~duplicated:0 ~retransmitted:0 ~newly_decided:[]);
      Alcotest.check_raises (what ^ ": no tail over recorded rounds")
        (Invalid_argument "Trace.record_quiet_tail: round already recorded")
        (fun () -> Trace.record_quiet_tail (make ()) ~from:1 ~rounds:9))
    [ false; true ]

let test_unicast_under_local_broadcast_rejected () =
  let module Uni = struct
    type input = unit
    type msg = unit
    type output = unit
    type state = unit

    let name = "uni"
    let equal_msg () () = true
    let init _ () ~outbox = Outbox.unicast outbox 0 ()
    let step _ () ~round:_ ~inbox:_ ~outbox:_ = ()
    let output () = Some ()
    let phase () = "uni"
    let inert () = false
  end in
  let module EU = Engine.Make (Uni) in
  let cfg = Config.make ~comm:Types.Local_broadcast ~n:3 ~t_max:0 () in
  try
    ignore (EU.run_exn cfg ~inputs:(fun _ -> ()) ());
    Alcotest.fail "honest unicast must be rejected under local broadcast"
  with Invalid_argument _ -> ()

(* --- topology-aware delivery --- *)

let ring4 = [| [ 1; 3 ]; [ 0; 2 ]; [ 1; 3 ]; [ 0; 2 ] |]

let test_topology_broadcast_reaches_neighbours () =
  let cfg = Config.make ~topology:ring4 ~n:4 ~t_max:0 () in
  check (Alcotest.list Alcotest.int) "reach of 0" [ 0; 1; 3 ] (Config.reach cfg 0);
  let res = E.run_exn cfg ~inputs:(fun id -> 100 + id) () in
  (match values res with
  | seen0 :: seen1 :: _ ->
      check_bool "0 hears neighbour 1" true (List.mem (1, 101) seen0);
      check_bool "0 does not hear non-neighbour 2" false (List.mem (2, 102) seen0);
      check_bool "0 hears itself" true (List.mem (0, 100) seen0);
      check_bool "1 hears 2" true (List.mem (2, 102) seen1)
  | _ -> Alcotest.fail "outputs");
  (* 4 nodes x 3 recipients each. *)
  check_int "message count" 12 res.trace.Trace.honest_msgs

let test_topology_validation () =
  Alcotest.check_raises "symmetry"
    (Invalid_argument "Config.make: topology must be symmetric") (fun () ->
      ignore (Config.make ~topology:[| [ 1 ]; [] |] ~n:2 ~t_max:0 ()));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Config.make: topology self-loop") (fun () ->
      ignore (Config.make ~topology:[| [ 0 ] |] ~n:1 ~t_max:0 ()));
  Alcotest.check_raises "length"
    (Invalid_argument "Config.make: topology must have length n") (fun () ->
      ignore (Config.make ~topology:[| [] |] ~n:2 ~t_max:0 ()))

let test_topology_local_broadcast_neighbourhood () =
  (* Under local broadcast with a topology, a Byzantine node must cover
     exactly its neighbourhood: all-nodes coverage is now invalid too. *)
  let cfg =
    Config.with_byzantine ~comm:Types.Local_broadcast ~topology:ring4 ~n:4
      ~t_max:1 [ 2 ] ()
  in
  let to_all =
    Adversary.named "to-all" (fun view ->
        if view.Adversary.round <> 0 then []
        else List.init 4 (fun dst -> { Adversary.src = 2; dst; msg = 9 }))
  in
  (match E.run cfg ~inputs:(fun id -> id) ~adversary:to_all () with
  | Error (`Invalid_adversary _) -> ()
  | Ok _ -> Alcotest.fail "beyond-neighbourhood broadcast must be rejected");
  let to_neighbourhood =
    Adversary.broadcast_each_round ~name:"ok" ~when_round:(fun r -> r = 0)
      (fun ~src:_ _ -> Some 9)
  in
  let res = E.run_exn cfg ~inputs:(fun id -> id) ~adversary:to_neighbourhood () in
  check_int "neighbourhood size messages" 3 res.trace.Trace.byz_msgs

let test_config_validation () =
  Alcotest.check_raises "n positive" (Invalid_argument "Config.make: n must be positive")
    (fun () -> ignore (Config.make ~n:0 ~t_max:0 ()));
  Alcotest.check_raises "faults arity"
    (Invalid_argument "Config.make: faults array must have length n") (fun () ->
      ignore (Config.make ~n:3 ~t_max:0 ~faults:[| Fault.Honest |] ()));
  let cfg = Config.with_byzantine ~n:5 ~t_max:1 [ 4 ] () in
  check_bool "within tolerance" true (Config.within_tolerance cfg);
  let cfg2 = Config.with_byzantine ~n:5 ~t_max:1 [ 3; 4 ] () in
  check_bool "over tolerance" false (Config.within_tolerance cfg2);
  check (Alcotest.list Alcotest.int) "honest ids" [ 0; 1; 2 ] (Config.honest_ids cfg2)

let test_delay_validation () =
  Alcotest.check_raises "fixed >= 1"
    (Invalid_argument "Delay.Uniform: need 1 <= lo <= hi") (fun () ->
      Delay.validate (Delay.Uniform { lo = 0; hi = 0 }));
  Alcotest.check_raises "uniform bounds"
    (Invalid_argument "Delay.Uniform: need 1 <= lo <= hi") (fun () ->
      Delay.validate (Delay.Uniform { lo = 2; hi = 1 }));
  Alcotest.check_raises "async fairness >= 1"
    (Invalid_argument "Delay.Asynchronous: fairness must be >= 1") (fun () ->
      Delay.validate (Delay.Asynchronous { fairness = 0; schedule = None }));
  Alcotest.check_raises "gst >= 0"
    (Invalid_argument "Delay.Eventually_synchronous: gst must be >= 0")
    (fun () ->
      Delay.validate
        (Delay.Eventually_synchronous { gst = -1; bound = 2; schedule = None }));
  Alcotest.check_raises "gst bound >= 1"
    (Invalid_argument "Delay.Eventually_synchronous: bound must be >= 1")
    (fun () ->
      Delay.validate
        (Delay.Eventually_synchronous { gst = 3; bound = 0; schedule = None }));
  check (Alcotest.option Alcotest.int) "bound sync" (Some 1) (Delay.bound Delay.synchronous);
  check (Alcotest.option Alcotest.int) "bound uniform" (Some 4)
    (Delay.bound (Delay.Uniform { lo = 2; hi = 4 }));
  (* The synchrony axis: asynchrony exposes no protocol-visible bound at
     all; under GST the bound is the eventual one, while the engine-facing
     [max_delay] shrinks toward it as the send round approaches gst. *)
  let async = Delay.Asynchronous { fairness = 5; schedule = None } in
  check (Alcotest.option Alcotest.int) "bound async" None (Delay.bound async);
  check_int "max_delay async = fairness" 5 (Delay.max_delay async ~round:7);
  let es = Delay.Eventually_synchronous { gst = 4; bound = 2; schedule = None } in
  check (Alcotest.option Alcotest.int) "bound gst = eventual bound" (Some 2)
    (Delay.bound es);
  check_int "max_delay pre-GST" 6 (Delay.max_delay es ~round:0);
  check_int "max_delay at GST-1" 3 (Delay.max_delay es ~round:3);
  check_int "max_delay post-GST" 2 (Delay.max_delay es ~round:9)

(* [Uniform] at lo = hi is a fixed delay and consumes no randomness: an
   rng it resolves against stays in lock-step with an untouched twin. *)
let test_fixed_delay_draws_nothing () =
  let a = Vv_prelude.Rng.create 11 and b = Vv_prelude.Rng.create 11 in
  List.iter
    (fun d ->
      let delay = Delay.Uniform { lo = d; hi = d } in
      for round = 0 to 9 do
        check_int "fixed delay" d (Delay.resolve delay a ~round ~src:0 ~dst:1)
      done;
      check_int "lock-step" (Vv_prelude.Rng.bits b) (Vv_prelude.Rng.bits a))
    [ 1; 2; 5 ]

let test_in_flight_view () =
  (* The rushing adversary can inspect the scheduler's pending deliveries.
     Under a fixed delay of 2 the round-0 broadcasts are still in flight
     (arrival round 2) when the adversary acts in round 1, and have been
     drained by the time it acts in round 2.  Flood only sends at init, so
     the expected pending set is exactly the two honest broadcasts. *)
  let seen = ref [] in
  let adversary =
    Adversary.named "observer" (fun view ->
        seen := (view.Adversary.round, view.Adversary.in_flight ()) :: !seen;
        [])
  in
  let cfg =
    Config.with_byzantine ~delay:(Delay.Uniform { lo = 2; hi = 2 })
      ~max_rounds:8 ~n:3 ~t_max:1 [ 2 ] ()
  in
  ignore (E.run_exn cfg ~inputs:(fun id -> id) ~adversary ());
  let at r = List.assoc r !seen in
  let triples = Alcotest.(list (triple int int int)) in
  (* Round 0: the adversary acts before any send has been routed. *)
  check triples "nothing in flight at round 0" [] (at 0);
  check triples "round-0 broadcasts pending at round 1"
    [ (2, 0, 0); (2, 0, 1); (2, 0, 2); (2, 1, 0); (2, 1, 1); (2, 1, 2) ]
    (at 1);
  check triples "drained once delivered" [] (at 2)

(* --- the delivery scheduler against a reference --- *)

(* Every node broadcasts its send round in each of rounds [0, sends);
   every arrival is logged as (arrival round, src, send round).  Decides
   once the last send has had the longest delay to arrive. *)
module Probe = struct
  type input = unit
  type msg = int
  type output = (int * int * int) list
  type state = { log : output; decided : output option }

  let name = "probe"
  let sends = 24
  let max_delay = 40
  let equal_msg = Int.equal

  let init _ () ~outbox =
    Outbox.broadcast outbox 0;
    { log = []; decided = None }

  let step _ st ~round ~inbox ~outbox =
    if round < sends then Outbox.broadcast outbox round;
    let log =
      Inbox.fold (fun acc src sent -> (round, src, sent) :: acc) st.log inbox
    in
    let decided =
      if round >= sends - 1 + max_delay then Some log else st.decided
    in
    { log; decided }

  let output st = st.decided
  let phase st = if st.decided = None then "probe" else "done"
  let inert _ = false
end

(* Delays from 1 to 40 rounds keep up to 40 arrival rounds in flight at
   once, past the scheduler's 16 initial buckets, so its [grow] rehashes
   live buckets.  Each arrival is checked against the schedule alone: a
   message sent in round r arrives exactly once, at r + delay. *)
let test_scheduler_matches_schedule () =
  let module EP = Engine.Make (Probe) in
  let n = 4 in
  let delay ~round ~src ~dst =
    1 + (((7 * round) + (5 * src) + (3 * dst)) mod Probe.max_delay)
  in
  let cfg =
    Config.make ~n ~t_max:0
      ~delay:
        (Delay.Asynchronous
           { fairness = Probe.max_delay; schedule = Some delay })
      ()
  in
  let res = EP.run_exn cfg ~inputs:(fun _ -> ()) () in
  check_bool "decided" false res.EP.stalled;
  Array.iteri
    (fun dst out ->
      let expected =
        List.concat_map
          (fun sent ->
            List.init n (fun src ->
                (sent + delay ~round:sent ~src ~dst, src, sent)))
          (List.init Probe.sends Fun.id)
      in
      check
        Alcotest.(list (triple int int int))
        (Printf.sprintf "node %d: each arrival once, at its scheduled round"
           dst)
        (List.sort compare expected)
        (List.sort compare (Option.get out)))
    res.EP.outputs

let () =
  Alcotest.run "sim"
    [
      ( "delivery",
        [
          Alcotest.test_case "full delivery" `Quick test_full_delivery;
          Alcotest.test_case "crash mid-broadcast (Lemma 4)" `Quick
            test_crash_mid_broadcast;
          Alcotest.test_case "crashed node silent" `Quick
            test_crashed_node_silent_after;
          Alcotest.test_case "uniform delay bounds" `Quick test_uniform_delay_bounds;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "p2p equivocation allowed" `Quick
            test_byzantine_equivocation_p2p_allowed;
          Alcotest.test_case "local broadcast blocks equivocation (Prop 6)"
            `Quick test_local_broadcast_blocks_equivocation;
          Alcotest.test_case "local broadcast identical ok" `Quick
            test_local_broadcast_identical_ok;
          Alcotest.test_case "local broadcast: two distinct broadcasts ok"
            `Quick test_local_broadcast_two_distinct_broadcasts_ok;
          Alcotest.test_case "impersonating honest rejected" `Quick
            test_adversary_from_honest_rejected;
          Alcotest.test_case "in-flight view" `Quick test_in_flight_view;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic given seed" `Quick test_determinism;
          Alcotest.test_case "stall reported" `Quick test_stall_reported;
          Alcotest.test_case "max_rounds is a round budget" `Quick
            test_max_rounds_is_a_round_budget;
          Alcotest.test_case "unicast rejected under local broadcast" `Quick
            test_unicast_under_local_broadcast_rejected;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "topology broadcast" `Quick
            test_topology_broadcast_reaches_neighbours;
          Alcotest.test_case "topology validation" `Quick test_topology_validation;
          Alcotest.test_case "topology local-broadcast neighbourhood" `Quick
            test_topology_local_broadcast_neighbourhood;
          Alcotest.test_case "delay validation" `Quick test_delay_validation;
          Alcotest.test_case "scheduler matches the delay schedule" `Quick
            test_scheduler_matches_schedule;
          Alcotest.test_case "fixed delay draws nothing" `Quick
            test_fixed_delay_draws_nothing;
        ] );
      ( "tail",
        [
          Alcotest.test_case "shared tail = stepped tail (mute)" `Quick
            test_quiet_tail_mute;
          Alcotest.test_case "one key, different start rounds" `Quick
            test_quiet_tail_start_rounds;
          Alcotest.test_case "checkpoint before the fast-forward" `Quick
            test_quiet_tail_resume;
          Alcotest.test_case "builder: tail = quiet records" `Quick
            test_quiet_tail_builder;
        ] );
    ]
