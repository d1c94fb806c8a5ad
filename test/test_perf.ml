(* Allocation regression tests for the engine hot path.

   The zero-allocation message API (Outbox emission, indexed Inbox views
   over the per-round delivery arena, int-packed scheduling) promises that
   a steady-state round allocates a bounded, small number of minor-heap
   words regardless of traffic: buffers are warm after the first few
   rounds, deliveries are packed ints, and the per-round cost reduces to
   the trace record plus whatever the protocol itself allocates.

   [Gc.minor_words] is deterministic for a fixed code path, unlike
   wall-clock on a noisy host, so these tests pin the budget exactly: the
   marginal words/round of a long run over a shorter one of the same
   configuration.  A regression that re-introduces per-delivery allocation
   (boxing deliveries, rebuilding inbox lists, per-round views) multiplies
   the marginal cost by the traffic volume and trips the budget at once. *)

open Vv_sim

(* A chatty protocol that never decides and never goes inert: every node
   broadcasts an immediate int each round and scans its inbox.  16
   deliveries per round at n=4 — enough traffic that any per-delivery
   allocation is visible — with zero protocol-side allocation. *)
module Chatty = struct
  type input = int
  type msg = int
  type output = int
  type state = { mutable seen : int }

  let name = "chatty"
  let equal_msg = Int.equal

  let init (_ : Protocol.ctx) v ~outbox =
    Outbox.broadcast outbox v;
    { seen = 0 }

  let step (_ : Protocol.ctx) st ~round:_ ~inbox ~outbox =
    let acc = ref st.seen in
    for i = 0 to Inbox.length inbox - 1 do
      acc := !acc lxor Inbox.msg inbox i lxor Inbox.src inbox i
    done;
    st.seen <- !acc;
    Outbox.broadcast outbox st.seen;
    st

  let output _ = None
  let phase _ = "chat"
  let inert _ = false
end

module E = Engine.Make (Chatty)

let minor_words_of_run ~max_rounds =
  let cfg = Config.make ~n:4 ~t_max:1 ~max_rounds () in
  let w0 = Gc.minor_words () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  let w1 = Gc.minor_words () in
  assert res.E.stalled;
  int_of_float (w1 -. w0)

(* The steady-state budget: the marginal allocation of one additional
   round of 16 broadcast deliveries.  Currently dominated by the trace's
   round record (~15 words); 64 leaves slack for representation changes
   while still catching any per-delivery or per-view regression (16
   deliveries at even 3 boxed words each would add ~48). *)
let words_per_round_budget = 64

let test_round_allocation () =
  let short = minor_words_of_run ~max_rounds:100 in
  let long = minor_words_of_run ~max_rounds:1100 in
  let per_round = (long - short) / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "steady-state allocation: %d words/round exceeds the %d-word budget"
       per_round words_per_round_budget)
    true
    (per_round <= words_per_round_budget);
  (* And the budget is not vacuously loose: a warm round costs something
     (the trace record), so a zero reading would mean the measurement is
     broken (e.g. the run fast-forwarded instead of executing rounds). *)
  Alcotest.(check bool) "rounds actually execute and allocate" true
    (per_round > 0)

(* Same measurement with the run's fixed costs included: whole-run words
   divided by rounds must stay within a small multiple of the marginal
   budget, so per-run setup (engine arrays, scheduler buckets, trace
   buffer) cannot silently balloon either. *)
let test_run_allocation () =
  let total = minor_words_of_run ~max_rounds:1000 in
  let per_round = total / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "whole-run allocation: %d words/round (budget %d)"
       per_round (2 * words_per_round_budget))
    true
    (per_round <= 2 * words_per_round_budget)

(* --- GST scheduler hot path --- *)

(* The same marginal measurement under the Eventually_synchronous model.
   Any RNG-drawing delay model pays for its draws (the splitmix state is
   a boxed int64, so each draw allocates a few words — 16 deliveries make
   that the dominant per-round cost), so the GST pin is relative: one
   additional round under ES, post-GST, must cost no more than the same
   round under Uniform over the same delay range plus the synchronous
   budget.  That catches the synchrony axis reintroducing per-delivery
   structure (boxed verdicts, per-round views, allocation in the clamp)
   without re-litigating the RNG's own allocation.  GST sits past the
   short run's horizon so both runs cross it identically warmed. *)
let minor_words_of_delay_run ~delay ~max_rounds =
  let cfg = Config.make ~n:4 ~t_max:1 ~max_rounds ~delay () in
  let w0 = Gc.minor_words () in
  let res = E.run_exn cfg ~inputs:(fun id -> id) () in
  let w1 = Gc.minor_words () in
  assert res.E.stalled;
  int_of_float (w1 -. w0)

let marginal_words_per_round ~delay =
  let short = minor_words_of_delay_run ~delay ~max_rounds:100 in
  let long = minor_words_of_delay_run ~delay ~max_rounds:1100 in
  (long - short) / 1000

let test_gst_round_allocation () =
  let uniform =
    marginal_words_per_round ~delay:(Delay.Uniform { lo = 1; hi = 2 })
  in
  let gst =
    marginal_words_per_round
      ~delay:
        (Delay.Eventually_synchronous { gst = 50; bound = 2; schedule = None })
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "gst scheduler: %d words/round vs uniform %d + budget %d" gst uniform
       words_per_round_budget)
    true
    (gst <= uniform + words_per_round_budget);
  Alcotest.(check bool) "gst rounds actually execute and allocate" true
    (gst > 0)

(* --- chaos transit verdicts --- *)

(* The packed transit verdict ([Network.transit_i]) keeps the per-link
   chaos decision off the heap: an inert link consumes neither randomness
   nor words, and an active one costs at most the RNG draws (a float draw
   may box). *)
let transit_words net ~count =
  let rng = Network.rng net in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to count do
    sink := !sink lxor Network.transit_i net rng ~round:(i land 15) ~src:0 ~dst:2
  done;
  let w1 = Gc.minor_words () in
  ignore !sink;
  int_of_float (w1 -. w0)

let test_transit_allocation () =
  (* Inert substrate: the guard short-circuits before any draw — exactly
     zero words across 10k calls. *)
  let inert = Network.make ~seed:3 () in
  Alcotest.(check int) "inert transit allocates nothing" 0
    (transit_words inert ~count:10_000);
  (* Active substrate: marginal cost per verdict stays within a few boxed
     RNG draws (at most three per verdict: drop, jitter, duplicate). *)
  let active = Network.make ~drop:0.3 ~jitter:1 ~duplicate:0.1 ~seed:3 () in
  let short = transit_words active ~count:1_000 in
  let long = transit_words active ~count:11_000 in
  let per_call = (long - short) / 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "active transit: %d words/call (budget 64)" per_call)
    true
    (per_call <= 64)

(* --- serve hot loop --- *)

(* The per-request cost of the daemon's framing layer: parse one submit
   line, render its ack.  Unlike the engine round above this path does
   allocate (a JSON tree in, a response string out) — the pin is that the
   cost stays proportional to one small request, not to connection
   lifetime or ledger height.  Same marginal-words idiom: a long batch
   over a short one cancels warmup. *)
let submit_line =
  {|{"id":42,"method":"submit","params":{"subject":7,"inputs":[0,1,0,2,1,0,0,0,0]}}|}

let rpc_words_of ~count =
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to count do
    match Vv_serve.Rpc.parse submit_line with
    | Ok (Vv_serve.Rpc.Submit { subject; _ }) ->
        sink :=
          !sink + subject
          + String.length
              (Vv_serve.Rpc.submit_ack ~id:(Vv_prelude.Json.Int 42)
                 ~position:11 ~slot:2 ~lane:3)
    | _ -> assert false
  done;
  let w1 = Gc.minor_words () in
  assert (!sink > 0);
  int_of_float (w1 -. w0)

(* About 25% above the 234 words measured when the budget was set; the
   codec that built a buffer per string and an option per byte took
   846. *)
let words_per_request_budget = 292

let test_rpc_allocation () =
  let short = rpc_words_of ~count:200 in
  let long = rpc_words_of ~count:1200 in
  let per_request = (long - short) / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "serve framing: %d words/request exceeds the %d-word budget"
       per_request words_per_request_budget)
    true
    (per_request <= words_per_request_budget);
  Alcotest.(check bool) "requests actually allocate" true (per_request > 0)

(* --- serve recovery path --- *)

(* A restarted daemon loads one decision-log record per slot, and a
   catchup renders one decision line per slot that the client parses
   back: the three per-slot costs of a recovery.  Each is pinned per slot
   with the marginal idiom, about 25% above the figure measured when the
   pins were set (render 109, parse 153, load 153 words).  Before the
   codec allocated only what it returns they were 370, 805 and 663. *)
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

let recovery_slot index =
  {
    Ledger.index;
    subject = 100_000 + index;
    decision = Some (Vv_ballot.Option_id.of_int (index mod 3));
    speaker = index mod 7;
    attempts = 2;
    valid = true;
    rounds_total = 208;
  }

let marginal_words f =
  let words count =
    let w0 = Gc.minor_words () in
    for _ = 1 to count do
      ignore (Sys.opaque_identity (f ()))
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  ignore (words 100);
  let short = words 200 in
  let long = words 1200 in
  (long - short) / 1000

let words_per_render_budget = 136
let words_per_parse_budget = 191
let words_per_record_budget = 191

let check_budget what per budget =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d words exceeds the %d-word budget" what per budget)
    true
    (per <= budget && per > 0)

let test_decision_render_allocation () =
  let slot = recovery_slot 51 in
  check_budget "Rpc.decision"
    (marginal_words (fun () -> Vv_serve.Rpc.decision ~batch:4 slot))
    words_per_render_budget

let test_decision_parse_allocation () =
  let line = Vv_serve.Rpc.decision ~batch:4 (recovery_slot 51) in
  check_budget "Rpc.decision_of_line"
    (marginal_words (fun () -> Vv_serve.Rpc.decision_of_line line))
    words_per_parse_budget

(* Whole loads of a 100- and a 1,100-record log: the difference is 1,000
   records' parse, checksum and append. *)
let test_log_load_allocation () =
  let cfg = Ledger.config ~byzantine:[ 7; 8 ] ~n:9 ~t:2 ~seed:0x5e7e () in
  let log height =
    let e = Engine.create ~batch:4 cfg in
    for index = 0 to height - 1 do
      ignore (Engine.append_committed e (recovery_slot index))
    done;
    let path = Filename.temp_file "vv_perf" ".log" in
    Sys.remove path;
    (match Vv_serve.Server.write_log e (Some path) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "write_log: %s" msg);
    path
  in
  let load_words path =
    let w0 = Gc.minor_words () in
    let loaded =
      Vv_serve.Server.load_engine ~batch:4 ~snapshot:(Some path) cfg
    in
    let w1 = Gc.minor_words () in
    (match loaded with
    | Ok e -> ignore (Sys.opaque_identity e)
    | Error msg -> Alcotest.failf "load_engine: %s" msg);
    int_of_float (w1 -. w0)
  in
  let short = log 100 and long = log 1100 in
  ignore (load_words short);
  let per_record = (load_words long - load_words short) / 1000 in
  List.iter Sys.remove [ short; long ];
  check_budget "Server.load_engine per record" per_record
    words_per_record_budget

(* A catchup-sized read: 1,000 decision-sized lines of 147 bytes through
   [Chan.read_lines], written as fast as the socket takes them.  Only the
   reads are counted.  A line costs its string and its list cells: the
   reader allocates nothing per byte and keeps no per-line buffer.
   Pinned about 25% above the 26 words measured when the pin was set. *)
let words_per_line_budget = 32

let test_line_read_allocation () =
  let count = 1000 in
  let data =
    String.concat "" (List.init count (fun _ -> String.make 147 'x' ^ "\n"))
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let ch = Vv_serve.Chan.of_fd b in
  let words = ref 0 and got = ref 0 and sent = ref 0 in
  while !got < count && Vv_serve.Chan.alive ch do
    (match Unix.write_substring a data !sent (String.length data - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    let w0 = Gc.minor_words () in
    let lines = Vv_serve.Chan.read_lines ch in
    words := !words + int_of_float (Gc.minor_words () -. w0);
    got := !got + List.length lines
  done;
  Vv_serve.Chan.close ch;
  Unix.close a;
  Alcotest.(check int) "every line read" count !got;
  check_budget "Chan.read_lines per line" (!words / count)
    words_per_line_budget

(* A pipelined batch a call: 100 calls of [Chan.read_lines], each on 56
   lines of 147 bytes, so each call's first 4 KiB read ends inside a
   line and the buffer grows to 8 KiB for the rest.  A buffer that size
   is allocated on the major heap, where [Gc.minor_words] does not see
   it, so the words allocated there directly are counted here.  The
   grown buffer is kept from call to call: the run costs one 8 KiB
   buffer, 1,026 words.  Returned to 4 KiB after each call, it cost
   1,540 words a call. *)
let major_words_budget = 2 * 1026

let test_line_read_major_allocation () =
  let calls = 100 and lines = 56 in
  let batch =
    String.concat "" (List.init lines (fun _ -> String.make 147 'x' ^ "\n"))
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ch = Vv_serve.Chan.of_fd b in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let words = ref 0. and got = ref 0 in
  for _ = 1 to calls do
    ignore (Unix.write_substring a batch 0 (String.length batch));
    let w0 = direct () in
    got := !got + List.length (Vv_serve.Chan.read_lines ch);
    words := !words +. (direct () -. w0)
  done;
  Vv_serve.Chan.close ch;
  Unix.close a;
  Alcotest.(check int) "every line read" (calls * lines) !got;
  check_budget "Chan.read_lines major-heap words, 100 calls"
    (int_of_float !words) major_words_budget

(* --- scripted prefix sharing --- *)

(* [Runner.run_checked] resumes each script of a checker cell from the
   prefix all its scripts share, held in a one-entry memo per domain.  A
   key that always misses, or a resume that runs the prefix again, keeps
   every output byte-identical and only costs time, so neither the
   goldens nor the bench gate would notice; the allocation of a resumed
   script against a fresh run does.  The cell is the first full-tier EIG
   (6,2) Byzantine one, whose prefix is the broadcast with the largest
   relay tree; a resumed script allocated 876 words there against 11,973
   for a fresh run when this pin was set. *)
let words_of f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. w0)

let test_prefix_sharing_allocation () =
  let module Space = Vv_check.Space in
  let module Runner = Vv_core.Runner in
  let execs = Array.to_list (Space.executions Space.full) in
  let eig_6_2 (e : Space.execution) =
    let c = e.Space.cell in
    c.Space.bb = Vv_bb.Bb.Eig && Space.uses_substrate c.Space.protocol
    && c.Space.n = 6 && c.Space.t = 2
    &&
    match c.Space.fault with
    | Space.Byzantine _ -> true
    | Space.Crash_one _ -> false
  in
  let cell =
    match List.find_opt eig_6_2 execs with
    | Some e -> e.Space.cell
    | None -> Alcotest.fail "no EIG (6,2) Byzantine cell in the full tier"
  in
  let specs =
    List.filter_map
      (fun (e : Space.execution) ->
        if e.Space.cell = cell then Some (Space.spec_of e) else None)
      execs
  in
  match specs with
  | first :: second :: _ ->
      (* the first script runs the cell's prefix; the second resumes it *)
      ignore (Runner.run_checked first);
      let resumed = words_of (fun () -> Runner.run_checked second) in
      let fresh = words_of (fun () -> Runner.run_checked_unshared second) in
      Alcotest.(check bool)
        (Printf.sprintf
           "resumed script: %d words, more than a quarter of a fresh run's %d"
           resumed fresh)
        true
        (4 * resumed <= fresh)
  | _ -> Alcotest.fail "the cell has fewer than two scripts"

(* Each cell also keeps one checkpoint per script depth along the last
   script's path, so a script whose first action is already checkpointed
   runs only its last action and the rest of the run.  A path memo that
   always misses is as invisible to the goldens as the prefix memo
   above.  The cell is the first full-tier 3-option Byzantine one, whose
   484 scripts share 22 first actions: the script that builds a first
   action's checkpoint is compared with the scripts that reuse it.  When
   this pin was set they averaged 4,140 and 2,866 words; without the
   path, 4,140 and 4,169.

   A reused script also pays the fixed cost of a short run, which the
   ratio does not see.  The absolute budget pins it: the reused scripts
   averaged 1,940 words while every schedule made its sixteen buckets up
   front, 1,714 once a bucket was made when a round first scheduled into
   it, and 1,924 with only that change reverted. *)
let reused_script_budget = 1_800

let test_path_sharing_allocation () =
  let module Space = Vv_check.Space in
  let module Runner = Vv_core.Runner in
  let execs = Array.to_list (Space.executions Space.full) in
  let three_options (e : Space.execution) =
    List.length e.Space.cell.Space.profile = 3
    &&
    match e.Space.cell.Space.fault with
    | Space.Byzantine _ -> true
    | Space.Crash_one _ -> false
  in
  let cell =
    match List.find_opt three_options execs with
    | Some e -> e.Space.cell
    | None -> Alcotest.fail "no 3-option Byzantine cell in the full tier"
  in
  Alcotest.(check string) "cell" "algo1/dolev-strong n=4 t=1 [1,1,1] byz:1"
    (Fmt.str "%a" Space.pp_cell cell);
  let scripts =
    List.filter_map
      (fun (e : Space.execution) ->
        if e.Space.cell = cell then Some (e.Space.script, Space.spec_of e)
        else None)
      execs
  in
  Alcotest.(check int) "scripts" 484 (List.length scripts);
  let first = function a :: _ -> Some a | [] -> None in
  match scripts with
  | [] -> ()
  | (script0, spec0) :: rest ->
      (* the cell's first script also runs its prefix: leave it out *)
      ignore (Runner.run_checked spec0);
      let built = ref (0, 0) and reused = ref (0, 0) in
      ignore
        (List.fold_left
           (fun previous (script, spec) ->
             let words = words_of (fun () -> Runner.run_checked spec) in
             let acc = if first script = previous then reused else built in
             acc := (fst !acc + words, snd !acc + 1);
             first script)
           (first script0) rest);
      let mean (words, count) = words / max count 1 in
      let built = mean !built and reused = mean !reused in
      Alcotest.(check bool)
        (Printf.sprintf
           "a script on a checkpointed first action: %d words, more than \
            3/4 of the %d of the script that built it"
           reused built)
        true
        (4 * reused <= 3 * built);
      Alcotest.(check bool)
        (Printf.sprintf
           "a script on a checkpointed first action: %d words, over the \
            %d-word budget"
           reused reused_script_budget)
        true
        (reused <= reused_script_budget)

(* --- stalled runs --- *)

(* A stalled run that fast-forwards records its quiet rounds as one tail
   shared through a per-domain table, so what it allocates does not grow
   with its round budget.  Recording them one by one again keeps every
   output byte identical, so neither the goldens nor the bench gate would
   notice; this pin does.  The run is an SCT stall (n = 9, t = 2, honest
   inputs 0,0,0,1,1,2,0, collude-second from nodes 7 and 8); each budget
   is run once first, which fills its tail.  When the pin was set both
   budgets allocated 7,431 words; recording round by round, 9,872 at 60
   rounds and 79,712 at 2,000.

   The run also pins a short run's fixed cost in absolute words.  The
   60-round stall allocated 7,430 words while each schedule made its
   sixteen buckets up front and grew each buffer from 8 entries, and
   6,915 once a bucket is made when a round first schedules into it,
   with its buffer sized for one broadcast round.  Reverting either
   change alone reads 7,118 (buckets up front) or 7,229 (buffers from 8
   entries), over the budget. *)
let stalled_run_budget = 7_000

let test_stalled_run_allocation () =
  let module Runner = Vv_core.Runner in
  let run max_rounds =
    Runner.run
      (Runner.spec ~byzantine:[ 7; 8 ] ~protocol:Runner.Algo2_sct
         ~strategy:Vv_core.Strategy.Collude_second ~max_rounds ~n:9 ~t:2
         (List.map Vv_ballot.Option_id.of_int [ 0; 0; 0; 1; 1; 2; 0; 0; 0 ]))
  in
  let words max_rounds =
    let w0 = Gc.minor_words () in
    let o = Sys.opaque_identity (run max_rounds) in
    let w1 = Gc.minor_words () in
    Alcotest.(check bool)
      (Printf.sprintf "stalls at %d rounds" max_rounds)
      true
      (o.Runner.stalled && o.Runner.rounds = max_rounds);
    int_of_float (w1 -. w0)
  in
  ignore (words 60);
  ignore (words 2_000);
  let short = words 60 and long = words 2_000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "a 2,000-round stall allocates %d words, more than 64 over the %d of \
        a 60-round one"
       long short)
    true
    (long <= short + 64);
  Alcotest.(check bool)
    (Printf.sprintf "a 60-round stall allocates %d words, over the %d-word \
                     budget"
       short stalled_run_budget)
    true
    (short <= stalled_run_budget)

(* --- judging through Property --- *)

(* Runner and the oracle judge every run through [Property.admissible],
   so a call through it must allocate what a call of the instance's own
   closure allocates.  Written as [let admissible p = p.admissible], it
   allocated 11 words more per call, and each checker run makes four
   such calls. *)
let test_property_call_allocation () =
  let module Property = Vv_ballot.Property in
  let o = Vv_ballot.Option_id.of_int in
  let s =
    Vv_ballot.Validity.summarize ~tie:Vv_ballot.Tie_break.default
      [ o 0; o 0; o 1 ]
  in
  let outputs = [ Some (o 0); Some (o 0); None ] in
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (f ()))
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  List.iter
    (fun p ->
      let direct = words (fun () -> p.Property.admissible s ~t_tol:1 ~outputs)
      and through =
        words (fun () -> Property.admissible p s ~t_tol:1 ~outputs)
      in
      Alcotest.(check int) (Property.id p ^ ": words per 100 calls") direct
        through)
    Property.all

let () =
  Alcotest.run "perf"
    [
      ( "allocation",
        [
          Alcotest.test_case "steady-state words/round" `Quick
            test_round_allocation;
          Alcotest.test_case "whole-run words/round" `Quick
            test_run_allocation;
          Alcotest.test_case "gst scheduler words/round" `Quick
            test_gst_round_allocation;
          Alcotest.test_case "chaos transit words/verdict" `Quick
            test_transit_allocation;
          Alcotest.test_case "serve framing words/request" `Quick
            test_rpc_allocation;
          Alcotest.test_case "decision render words/slot" `Quick
            test_decision_render_allocation;
          Alcotest.test_case "decision parse words/slot" `Quick
            test_decision_parse_allocation;
          Alcotest.test_case "log load words/record" `Quick
            test_log_load_allocation;
          Alcotest.test_case "line read words/line" `Quick
            test_line_read_allocation;
          Alcotest.test_case "line read major words/100 calls" `Quick
            test_line_read_major_allocation;
          Alcotest.test_case "resumed script vs fresh run words" `Quick
            test_prefix_sharing_allocation;
          Alcotest.test_case "reused vs built first action words" `Quick
            test_path_sharing_allocation;
          Alcotest.test_case "stalled run words vs round budget" `Quick
            test_stalled_run_allocation;
          Alcotest.test_case "property call words" `Quick
            test_property_call_allocation;
        ] );
    ]
