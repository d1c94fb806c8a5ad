(* Tests of the chaos network substrate and its integrations: substrate
   semantics (cuts, windows, guarded draws), byte-identity of the legacy
   path when the substrate is disabled, retransmission backoff and its
   engine-level rescues, the compiled crash filter against its list
   oracle, delay-schedule validation at Config construction, and the E17
   campaign's jobs-invariance. *)

module Network = Vv_sim.Network
module Retransmit = Vv_sim.Retransmit
module Delay = Vv_sim.Delay
module Fault = Vv_sim.Fault
module Config = Vv_sim.Config
module Trace = Vv_sim.Trace
module Rng = Vv_prelude.Rng
module Runner = Vv_core.Runner
module Oid = Vv_ballot.Option_id
module Chaos = Vv_analysis.Exp_chaos

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let oids = List.map Oid.of_int

let window ~from ~until = { Network.from_round = from; until_round = until }

(* --- substrate semantics --- *)

let test_windows_and_cuts () =
  let w = window ~from:2 ~until:5 in
  check_bool "before" false (Network.window_active w ~round:1);
  check_bool "opening round" true (Network.window_active w ~round:2);
  check_bool "last active" true (Network.window_active w ~round:4);
  check_bool "healed" false (Network.window_active w ~round:5);
  let net =
    Network.make
      ~partitions:[ { Network.window = w; isolated = [ 0; 1 ] } ]
      ~outages:[ { Network.node = 4; window = window ~from:3 ~until:4 } ]
      ()
  in
  check_bool "across the cut" true (Network.cut net ~round:3 ~src:0 ~dst:2);
  check_bool "cut is bidirectional" true (Network.cut net ~round:3 ~src:2 ~dst:0);
  check_bool "within the isolated side" false
    (Network.cut net ~round:3 ~src:0 ~dst:1);
  check_bool "within the majority side" false
    (Network.cut net ~round:3 ~src:2 ~dst:3);
  check_bool "healed partition" false (Network.cut net ~round:5 ~src:0 ~dst:2);
  check_bool "outage cuts sends" true (Network.cut net ~round:3 ~src:4 ~dst:2);
  check_bool "outage cuts receives" true (Network.cut net ~round:3 ~src:2 ~dst:4);
  check_bool "outage over" false (Network.cut net ~round:4 ~src:4 ~dst:2);
  check_bool "self-delivery exempt" false (Network.cut net ~round:3 ~src:0 ~dst:0)

let test_is_none_ignores_seed () =
  check_bool "none" true (Network.is_none Network.none);
  check_bool "seeded but inert" true (Network.is_none (Network.make ~seed:99 ()));
  check_bool "drop" false (Network.is_none (Network.make ~drop:0.1 ()));
  check_bool "partition" false
    (Network.is_none
       (Network.make
          ~partitions:
            [ { Network.window = window ~from:0 ~until:1; isolated = [ 0 ] } ]
          ()))

let test_make_validation () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "drop = 1" (fun () -> Network.make ~drop:1.0 ());
  raises "negative duplicate" (fun () -> Network.make ~duplicate:(-0.1) ());
  raises "negative jitter" (fun () -> Network.make ~jitter:(-1) ());
  raises "inverted window" (fun () ->
      Network.make
        ~partitions:
          [ { Network.window = window ~from:3 ~until:1; isolated = [ 0 ] } ]
        ());
  raises "negative outage node" (fun () ->
      Network.make
        ~outages:[ { Network.node = -1; window = window ~from:0 ~until:1 } ]
        ())

let test_transit_guarded_draws () =
  (* Self-deliveries and inert substrates consume no randomness: the two
     rngs stay in lock-step through interleaved calls. *)
  let net = Network.make ~drop:0.5 ~seed:7 () in
  let a = Network.rng net and b = Network.rng net in
  for round = 0 to 19 do
    (* 0 packs "deliver, no extra delay, no duplicate". *)
    check_int "self-delivery passes untouched" 0
      (Network.transit_i net a ~round ~src:1 ~dst:1);
    let va = Network.transit_i net a ~round ~src:0 ~dst:2 in
    let vb = Network.transit_i net b ~round ~src:0 ~dst:2 in
    check_int "same stream" va vb
  done

(* --- retransmission policy --- *)

let test_backoff () =
  let p = Retransmit.make ~base:1 ~cap:8 ~max_attempts:6 () in
  check_int "attempt 1" 1 (Retransmit.backoff p ~attempt:1);
  check_int "attempt 2" 2 (Retransmit.backoff p ~attempt:2);
  check_int "attempt 3" 4 (Retransmit.backoff p ~attempt:3);
  check_int "attempt 4 capped" 8 (Retransmit.backoff p ~attempt:4);
  check_int "attempt 6 capped" 8 (Retransmit.backoff p ~attempt:6);
  let p3 = Retransmit.make ~base:3 ~cap:10 ~max_attempts:2 () in
  check_int "base 3" 3 (Retransmit.backoff p3 ~attempt:1);
  check_int "doubled" 6 (Retransmit.backoff p3 ~attempt:2);
  check_int "capped at 10" 10 (Retransmit.backoff p3 ~attempt:3);
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "base 0" (fun () -> Retransmit.make ~base:0 ());
  raises "cap < base" (fun () -> Retransmit.make ~base:4 ~cap:2 ());
  raises "no attempts" (fun () -> Retransmit.make ~max_attempts:0 ());
  raises "attempt 0" (fun () -> Retransmit.backoff Retransmit.default ~attempt:0)

(* --- byte-identity of the legacy path --- *)

let golden_inputs = oids [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 2 ]

let test_inert_substrate_byte_identical () =
  (* A seeded but zero-intensity substrate must not perturb anything:
     same outcome, same trace, same CSV bytes, no chaos columns. *)
  let plain = Runner.simple ~t:2 ~f:2 ~seed:0x5eed golden_inputs in
  let inert =
    Runner.simple ~t:2 ~f:2 ~seed:0x5eed
      ~network:(Network.make ~seed:0xfeed ()) golden_inputs
  in
  check_bool "traces equal" true (plain.Runner.trace = inert.Runner.trace);
  check Alcotest.string "csv bytes"
    (Trace.to_csv plain.Runner.trace)
    (Trace.to_csv inert.Runner.trace);
  check_bool "no chaos flag" false inert.Runner.trace.Trace.chaos;
  check_bool "legacy header" true
    (String.length (Trace.to_csv inert.Runner.trace) > String.length Trace.csv_header
    && String.sub (Trace.to_csv inert.Runner.trace) 0
         (String.length Trace.csv_header)
       = Trace.csv_header)

let test_chaos_trace_schema () =
  (* An active substrate flips the trace to the extended schema. *)
  let r =
    Runner.simple ~t:2 ~f:2 ~seed:3
      ~network:(Network.make ~duplicate:0.4 ~seed:11 ())
      golden_inputs
  in
  check_bool "chaos flag" true r.Runner.trace.Trace.chaos;
  check_bool "duplicates observed" true (r.Runner.trace.Trace.dup_msgs > 0);
  let csv = Trace.to_csv r.Runner.trace in
  check Alcotest.string "chaos header" Trace.csv_header_chaos
    (String.sub csv 0 (String.length Trace.csv_header_chaos))

(* --- engine-level fault injection --- *)

let test_permanent_outage_stalls () =
  (* Node 0 silent for the whole run: everyone else decides, node 0
     cannot, so the run stalls — deterministically (no probability). *)
  let r =
    Runner.simple ~t:2 ~f:2 ~seed:0x5eed ~max_rounds:30
      ~network:
        (Network.make
           ~outages:[ { Network.node = 0; window = window ~from:0 ~until:1000 } ]
           ())
      golden_inputs
  in
  check_bool "stalled" true r.Runner.stalled;
  check_bool "node 0 undecided" true (List.hd r.Runner.outputs = None);
  check_bool "still admissible" true r.Runner.safety_admissible;
  check_bool "drops counted" true (r.Runner.trace.Trace.dropped_msgs > 0)

let test_retransmission_rescues () =
  (* At 25% omission the losses are final without retransmission and the
     run stalls; with the backoff policy and the delay bound at 2 the
     retries land inside the synchrony slack and every node decides.
     (A retry cannot rescue under [Delay.synchronous] — there is no slack
     for a one-round-late arrival — which is why the campaign and this
     test run with a delay bound above the minimum.) *)
  let network = Network.make ~drop:0.25 ~jitter:1 ~seed:5 () in
  let run ?retransmit () =
    Runner.simple ~t:2 ~f:2 ~seed:5 ~max_rounds:60
      ~delay:(Delay.Uniform { lo = 1; hi = 2 })
      ~network ?retransmit golden_inputs
  in
  let without = run () in
  let with_r = run ~retransmit:(Retransmit.make ~max_attempts:8 ()) () in
  check_bool "stalls without retransmission" true without.Runner.stalled;
  check_int "no retries without a policy" 0
    without.Runner.trace.Trace.retrans_msgs;
  check_bool "terminates with retransmission" true with_r.Runner.termination;
  check_bool "exact with retransmission" true with_r.Runner.voting_validity_tb;
  check_bool "retries fired" true (with_r.Runner.trace.Trace.retrans_msgs > 0)

(* --- retransmission under asynchrony and GST (E20's substrate) --- *)

let test_sync_protocol_rejects_async () =
  (* The synchronous voting pipeline relies on a known delta_t; genuine
     asynchrony advertises none (Delay.bound = None), and the protocol
     refuses to run rather than silently miscounting rounds.  The
     network-agnostic variant in lib/bb (E20) is the protocol for this
     regime. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match
    Runner.simple ~t:2 ~f:2 ~seed:1
      ~delay:(Delay.Asynchronous { fairness = 3; schedule = None })
      golden_inputs
  with
  | exception Invalid_argument msg ->
      check_bool
        (Fmt.str "names the missing bound (got %S)" msg)
        true
        (contains msg "requires a known delay bound")
  | _ -> Alcotest.fail "bound-free delay must be rejected by the sync path"

let test_retransmission_under_gst () =
  (* Before GST a message has no per-send bound — only "land by
     gst + bound" — so at 25% omission the losses pile up and the run
     stalls without retransmission.  With GST at round 1 the capped
     backoff lands its retries inside the post-GST bound and every node
     decides exactly; with GST at round 6 — past the sync protocol's
     decision window — even retransmission cannot rescue a protocol that
     was promised only the eventual bound, and the stall is deterministic
     (safety still holds: nobody decides wrongly, nobody decides at
     all). *)
  let run ~gst ?retransmit () =
    let network = Network.make ~drop:0.25 ~jitter:1 ~seed:5 () in
    Runner.simple ~t:2 ~f:2 ~seed:5 ~max_rounds:80
      ~delay:(Delay.Eventually_synchronous { gst; bound = 2; schedule = None })
      ~network ?retransmit golden_inputs
  in
  let policy = Retransmit.make ~max_attempts:8 () in
  let without = run ~gst:1 () in
  check_bool "stalls without retransmission" true without.Runner.stalled;
  check_int "no retries without a policy" 0
    without.Runner.trace.Trace.retrans_msgs;
  let rescued = run ~gst:1 ~retransmit:policy () in
  check_bool "terminates with retransmission" true rescued.Runner.termination;
  check_bool "exact with retransmission" true rescued.Runner.voting_validity_tb;
  check_bool "retries fired" true (rescued.Runner.trace.Trace.retrans_msgs > 0);
  let late = run ~gst:6 ~retransmit:policy () in
  check_bool "late GST stalls even with retries" true late.Runner.stalled;
  check_bool "late GST stays safe" true late.Runner.safety_admissible

(* A bound-free flood protocol for driving the engine under genuine
   asynchrony: broadcast the input once, accumulate everything heard,
   report the log late enough for the fairness cap and the retries to
   play out. *)
module Relay = struct
  type input = int
  type msg = int
  type output = (int * int) list (* sorted (src, value) pairs seen *)
  type state = { seen : (int * int) list; decided : output option }

  let name = "relay"
  let decide_round = 30
  let equal_msg = Int.equal

  let init (_ : Vv_sim.Protocol.ctx) v ~outbox =
    Vv_sim.Outbox.broadcast outbox v;
    { seen = []; decided = None }

  let step (_ : Vv_sim.Protocol.ctx) st ~round ~inbox ~outbox:_ =
    let seen =
      Vv_sim.Inbox.fold
        (fun acc src v -> if List.mem (src, v) acc then acc else (src, v) :: acc)
        st.seen inbox
    in
    let decided =
      if round >= decide_round && st.decided = None then
        Some (List.sort compare seen)
      else st.decided
    in
    { seen; decided }

  let output st = st.decided
  let phase st = if st.decided = None then "relay" else "done"
  let inert _ = false
end

let test_async_retransmission_floods () =
  (* Under Asynchronous delay with 40% omission, the capped backoff turns
     every loss into an eventual delivery (each retry re-enters the
     substrate, each arrival lands within the fairness cap of its
     re-send), so every node hears every input; at the pinned seed the
     same run without a policy provably loses traffic. *)
  let module E = Vv_sim.Engine.Make (Relay) in
  let run ?retransmit () =
    let cfg =
      Config.make ~n:4 ~t_max:0 ~max_rounds:40
        ~delay:(Delay.Asynchronous { fairness = 3; schedule = None })
        ~network:(Network.make ~drop:0.4 ~seed:9 ())
        ?retransmit ~seed:9 ()
    in
    E.run_exn cfg ~inputs:(fun id -> 100 + id) ()
  in
  let full = List.init 4 (fun i -> (i, 100 + i)) in
  let pair = Alcotest.(list (pair int int)) in
  let with_r = run ~retransmit:(Retransmit.make ~max_attempts:8 ()) () in
  check_bool "retries fired" true (with_r.E.trace.Trace.retrans_msgs > 0);
  List.iter
    (fun out ->
      match out with
      | Some seen -> check pair "full delivery under async + retries" full seen
      | None -> Alcotest.fail "undecided under async + retries")
    (E.honest_outputs with_r);
  let without = run () in
  check_bool "pinned loss is final without retries" true
    (List.exists
       (fun out -> match out with Some seen -> seen <> full | None -> true)
       (E.honest_outputs without))

(* --- compiled crash filter vs the list oracle --- *)

let plan_gen n =
  QCheck.Gen.(
    int_range 0 2 >>= function
    | 0 -> return Fault.Honest
    | 1 -> return Fault.Byzantine
    | _ ->
        int_range 0 5 >>= fun at_round ->
        list_size (int_range 0 n) (int_range 0 (n - 1)) >>= fun deliver_to ->
        return (Fault.Crash { at_round; deliver_to }))

let prop_compile_matches_delivers =
  QCheck.Test.make ~count:300 ~name:"Fault.compiled_delivers = Fault.delivers"
    (QCheck.make
       ~print:(fun (n, p) -> Fmt.str "n=%d plan=%a" n Fault.pp p)
       QCheck.Gen.(
         int_range 1 10 >>= fun n ->
         plan_gen n >>= fun p -> return (n, p)))
    (fun (n, plan) ->
      let compiled = Fault.compile ~n plan in
      List.for_all
        (fun round ->
          List.for_all
            (fun dst ->
              Fault.compiled_delivers compiled ~round ~dst
              = Fault.delivers plan ~round ~dst)
            (List.init n Fun.id))
        (List.init 9 Fun.id))

(* --- delay schedules: bound property and construction-time probes --- *)

let delay_gen =
  QCheck.Gen.(
    int_range 0 2 >>= function
    | 0 -> int_range 1 5 >>= fun d -> return (Delay.Uniform { lo = d; hi = d })
    | 1 ->
        int_range 1 4 >>= fun lo ->
        int_range 0 4 >>= fun extra ->
        return (Delay.Uniform { lo; hi = lo + extra })
    | _ ->
        int_range 1 5 >>= fun bound ->
        return
          (Delay.Eventually_synchronous
             {
               gst = 0;
               bound;
               schedule =
                 Some
                   (fun ~round ~src ~dst ->
                     1 + ((round + (3 * src) + dst) mod bound));
             }))

let prop_resolve_within_bound =
  QCheck.Test.make ~count:300 ~name:"Delay.resolve stays within Delay.bound"
    (QCheck.make
       ~print:(fun (d, seed) -> Fmt.str "%a seed=%d" Delay.pp d seed)
       QCheck.Gen.(
         delay_gen >>= fun d ->
         int_range 0 9999 >>= fun seed -> return (d, seed)))
    (fun (delay, seed) ->
      let rng = Rng.create seed in
      let b = Delay.bound delay in
      List.for_all
        (fun round ->
          List.for_all
            (fun src ->
              List.for_all
                (fun dst ->
                  let d = Delay.resolve delay rng ~round ~src ~dst in
                  d >= 1 && match b with Some b -> d <= b | None -> true)
                (List.init 4 Fun.id))
            (List.init 4 Fun.id))
        (List.init 6 Fun.id))

(* The synchrony-axis models, with and without adversary-supplied
   schedules.  Kept out of [delay_gen]: pre-GST resolutions legitimately
   exceed [Delay.bound] (the *eventual* bound), so these models are
   checked against the per-round [Delay.max_delay] instead. *)
let async_delay_gen =
  QCheck.Gen.(
    bool >>= fun scheduled ->
    bool >>= function
    | true ->
        int_range 1 6 >>= fun fairness ->
        let schedule =
          if scheduled then
            Some
              (fun ~round ~src ~dst ->
                1 + ((round + (2 * src) + dst) mod fairness))
          else None
        in
        return (Delay.Asynchronous { fairness; schedule })
    | false ->
        int_range 0 6 >>= fun gst ->
        int_range 1 4 >>= fun bound ->
        let schedule =
          if scheduled then
            Some
              (fun ~round ~src ~dst ->
                let cap = if round >= gst then bound else gst + bound - round in
                1 + ((round + (2 * src) + dst) mod cap))
          else None
        in
        return (Delay.Eventually_synchronous { gst; bound; schedule }))

(* Satellite of E20: a retransmission scheduled by the capped backoff is
   just another send at its retry round, so its resolved delay must obey
   the same per-round admissibility cap as a fresh message — a retry of a
   pre-GST loss may land late (by gst + bound), but any retry fired at or
   after GST must arrive within the post-GST bound.  [Delay.max_delay]
   states exactly that cap, and the engine clamps substrate jitter with
   it; here we check [Delay.resolve] never exceeds it at any retry round
   the backoff can reach. *)
let prop_retransmit_respects_post_gst_bound =
  QCheck.Test.make ~count:300
    ~name:"retransmitted arrivals never violate the post-GST bound"
    (QCheck.make
       ~print:(fun (d, seed, base, cap) ->
         Fmt.str "%a seed=%d base=%d cap=%d" Delay.pp d seed base cap)
       QCheck.Gen.(
         async_delay_gen >>= fun d ->
         int_range 0 9999 >>= fun seed ->
         int_range 1 3 >>= fun base ->
         int_range 0 3 >>= fun extra -> return (d, seed, base, base + extra)))
    (fun (delay, seed, base, cap) ->
      let p = Retransmit.make ~base ~cap ~max_attempts:5 () in
      let rng = Rng.create seed in
      List.for_all
        (fun send ->
          let retry_round = ref send in
          List.for_all
            (fun attempt ->
              retry_round := !retry_round + Retransmit.backoff p ~attempt;
              let round = !retry_round in
              List.for_all
                (fun src ->
                  List.for_all
                    (fun dst ->
                      let d = Delay.resolve delay rng ~round ~src ~dst in
                      d >= 1
                      && d <= Delay.max_delay delay ~round
                      &&
                      match delay with
                      | Delay.Eventually_synchronous { gst; bound; _ } ->
                          round + d <= max (gst + bound) (round + bound)
                      | _ -> true)
                    (List.init 3 Fun.id))
                (List.init 3 Fun.id))
            (List.init 5 (fun a -> a + 1)))
        (List.init 4 Fun.id))

let test_schedule_probe_names_offender () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let expect_msg name needle f =
    match f () with
    | exception Invalid_argument msg ->
        check_bool
          (Fmt.str "%s mentions %S (got %S)" name needle msg)
          true (contains msg needle)
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* An adversarial schedule under a declared bound: GST at round 0. *)
  let adversarial schedule =
    Delay.Eventually_synchronous { gst = 0; bound = 2; schedule = Some schedule }
  in
  (* A schedule returning 0 at exactly (2, 1, 0). *)
  let below_one () =
    Config.make
      ~delay:
        (adversarial (fun ~round ~src ~dst ->
             if round = 2 && src = 1 && dst = 0 then 0 else 1))
      ~max_rounds:5 ~n:3 ~t_max:1 ()
  in
  expect_msg "below-one probe" "(round 2, src 1, dst 0)" below_one;
  expect_msg "below-one probe" "against declared bound 2" below_one;
  (* A schedule exceeding its own bound at (0, 2, 2). *)
  let above_bound () =
    Config.make
      ~delay:
        (adversarial (fun ~round ~src ~dst ->
             if round = 0 && src = 2 && dst = 2 then 3 else 1))
      ~max_rounds:4 ~n:3 ~t_max:1 ()
  in
  expect_msg "above-bound probe" "(round 0, src 2, dst 2)" above_bound;
  expect_msg "above-bound probe" "against declared bound 2" above_bound;
  (* Well-formed schedules construct fine. *)
  ignore
    (Config.make
       ~delay:(adversarial (fun ~round:_ ~src:_ ~dst:_ -> 2))
       ~max_rounds:5 ~n:3 ~t_max:1 ())

let test_network_ids_validated () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "partition id out of range" (fun () ->
      Config.make
        ~network:
          (Network.make
             ~partitions:
               [ { Network.window = window ~from:0 ~until:2; isolated = [ 7 ] } ]
             ())
        ~n:4 ~t_max:1 ());
  raises "outage id out of range" (fun () ->
      Config.make
        ~network:
          (Network.make
             ~outages:[ { Network.node = 4; window = window ~from:0 ~until:2 } ]
             ())
        ~n:4 ~t_max:1 ())

(* --- the E17 campaign --- *)

let test_campaign_jobs_invariant () =
  let module Campaign = Vv_exec.Campaign in
  let run jobs =
    Campaign.run ~profile:Campaign.Smoke ~jobs (Chaos.campaign ~trials:1 ())
  in
  let a = run 1 and b = run 2 in
  List.iter
    (fun (o : Campaign.outcome) ->
      check_int "grid fully classified" 54 o.Campaign.cells_run;
      check_bool "safety-guaranteed variant clean" true
        o.Campaign.emitted.Campaign.ok)
    [ a; b ];
  let csv (o : Campaign.outcome) =
    Vv_exec.Emit.(tables_string Csv o.Campaign.emitted.Campaign.tables)
  in
  check Alcotest.string "identical grids at any jobs" (csv a) (csv b)

let () =
  Alcotest.run "chaos"
    [
      ( "substrate",
        [
          Alcotest.test_case "windows and cuts" `Quick test_windows_and_cuts;
          Alcotest.test_case "is_none ignores seed" `Quick
            test_is_none_ignores_seed;
          Alcotest.test_case "plan validation" `Quick test_make_validation;
          Alcotest.test_case "guarded draws" `Quick test_transit_guarded_draws;
        ] );
      ( "retransmit",
        [ Alcotest.test_case "capped backoff" `Quick test_backoff ] );
      ( "engine",
        [
          Alcotest.test_case "inert substrate byte-identical" `Quick
            test_inert_substrate_byte_identical;
          Alcotest.test_case "chaos trace schema" `Quick
            test_chaos_trace_schema;
          Alcotest.test_case "permanent outage stalls" `Quick
            test_permanent_outage_stalls;
          Alcotest.test_case "retransmission rescues" `Quick
            test_retransmission_rescues;
          Alcotest.test_case "sync path rejects bound-free delay" `Quick
            test_sync_protocol_rejects_async;
          Alcotest.test_case "retransmission under GST" `Quick
            test_retransmission_under_gst;
          Alcotest.test_case "async retransmission floods" `Quick
            test_async_retransmission_floods;
        ] );
      ( "fault",
        [ QCheck_alcotest.to_alcotest prop_compile_matches_delivers ] );
      ( "delay",
        [
          QCheck_alcotest.to_alcotest prop_resolve_within_bound;
          QCheck_alcotest.to_alcotest prop_retransmit_respects_post_gst_bound;
          Alcotest.test_case "schedule probe names offender" `Quick
            test_schedule_probe_names_offender;
          Alcotest.test_case "chaos ids validated" `Quick
            test_network_ids_validated;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs invariance and classification" `Quick
            test_campaign_jobs_invariant;
        ] );
    ]
