(* Workload serve-commit: the multi-shot daemon committing a burst.

   An in-process Server.serve runs in its own domain (batch=4, jobs=1, a
   snapshot file) and the load generator, on the main domain, submits
   requests in a closed loop with one submit outstanding, round-robin over
   two connections: the ack-serialized discipline of Client.run_load, so
   the committed log is a function of the request list alone and both
   connections receive every decision broadcast.  Each iteration starts
   from an empty snapshot, so every iteration does the same work. *)

open Measure
open Serve_load
module Rpc = Vv_serve.Rpc

let subjects = 2000
let clients = 2

type iteration = {
  burst_s : float;  (** first submit sent -> every decision received *)
  setup_s : float;
  live_mb : float;  (** live heap with the daemon still at full height *)
  failed : int;
}

(* One daemon lifetime: set-up (request list, fresh snapshot, socket,
   daemon, connections, a status round trip), the timed burst, then
   shutdown.  Commit latencies (submit sent -> that position's decision
   read) go to [lat], submit round trips to [acks], both in ms. *)
let iteration ~dir ~seed ~cfg ~(expected : Ledger.slot array) ~lat ~acks =
  let socket = Filename.concat dir "commit.sock"
  and snapshot = Filename.concat dir "commit.snap" in
  let t_setup = now () in
  let lines = Array.of_list (List.mapi submit_line (requests ~seed subjects)) in
  remove snapshot;
  let d = spawn ~socket ~snapshot cfg in
  let conns = Array.init clients (fun _ -> Client.connect_unix ~retry_for:10. socket) in
  (match Client.status conns.(0) with Ok _ -> () | Error e -> failwith e);
  let setup_s = now () -. t_setup in
  let got = Array.make subjects None in
  let arrived = Float.Array.make subjects 0. in
  let seen = ref 0 and errors = ref 0 in
  let absorb line =
    match Rpc.decision_of_line line with
    | Some s ->
        let p = s.Ledger.index in
        if p >= 0 && p < subjects && got.(p) = None then begin
          got.(p) <- Some s;
          Float.Array.set arrived p (now ());
          incr seen
        end;
        true
    | None -> false
  in
  (* Read [conn] until the response echoing [id], absorbing the decision
     notifications that arrive first. *)
  let rec await conn id =
    match Client.recv_line ~timeout:30. conn with
    | None -> failwith "serve-commit: connection closed or timed out"
    | Some line when absorb line -> await conn id
    | Some line -> (
        match Json.of_string line with
        | Ok (Json.Obj fields) when List.assoc_opt "id" fields = Some id ->
            if List.mem_assoc "error" fields then incr errors;
            fields
        | _ -> await conn id)
  in
  let sent = Float.Array.make subjects 0. in
  let t_start = now () in
  for i = 0 to subjects - 1 do
    let conn = conns.(i mod clients) in
    let ts = now () in
    Float.Array.set sent i ts;
    Client.send conn lines.(i);
    let fields = await conn (Json.Int i) in
    Samples.add acks ((now () -. ts) *. 1e3);
    match List.assoc_opt "result" fields with
    | Some (Json.Obj r) when List.assoc_opt "position" r = Some (Json.Int i) -> ()
    | _ -> incr errors
  done;
  Client.send conns.(0) {|{"id":"flush","method":"flush","params":{}}|};
  ignore (await conns.(0) (Json.String "flush"));
  while !seen < subjects do
    match Client.recv_line ~timeout:30. conns.(0) with
    | Some line -> ignore (absorb line)
    | None -> failwith "serve-commit: decision stream ended early"
  done;
  let burst_s = now () -. t_start in
  let live_mb = live_heap_mb () in
  for p = 0 to subjects - 1 do
    Samples.add lat ((Float.Array.get arrived p -. Float.Array.get sent p) *. 1e3)
  done;
  let (_ : Server.outcome) = stop d conns.(0) in
  Array.iter Client.close conns;
  let wrong = ref 0 in
  Array.iteri (fun p s -> if s <> Some expected.(p) then incr wrong) got;
  { burst_s; setup_s; live_mb; failed = !errors + !wrong }

(* The reference log: the same request list through an in-process engine. *)
let reference cfg ~seed =
  let log, stats = Engine.run ~batch ~jobs:1 cfg (requests ~seed subjects) in
  if not stats.Engine.all_valid then failwith "serve-commit: reference log not all valid";
  Array.of_list log

(* The first burst is a warm-up, checked but not timed.  Every timed
   burst, set-up included, sits between two host-speed kernels and its
   figures are scaled by their factor; each figure is the median of the
   scaled per-burst values.  The kernel runs on two domains at once, as
   the burst does: a one-domain kernel missed most of a slowdown of the
   daemon's vCPU (NOTES.md). *)
let run_untraced ~dir ~seed ~seconds =
  let lat = Samples.create subjects and acks = Samples.create 100_000 in
  let cfg = config seed in
  let expected = reference cfg ~seed in
  let warm = iteration ~dir ~seed ~cfg ~expected ~lat ~acks in
  let its = ref [] and scaled = ref [] and raw_rates = ref [] in
  let before = ref (Speed.sample ~domains:2 ()) in
  let t_start = now () in
  while List.length !its < 3 || now () -. t_start < seconds do
    Samples.reset lat;
    let it = iteration ~dir ~seed ~cfg ~expected ~lat ~acks in
    let after = Speed.sample ~domains:2 () in
    let k = Speed.scale ~before:!before ~after in
    before := after;
    its := it :: !its;
    raw_rates := (float_of_int subjects /. it.burst_s) :: !raw_rates;
    scaled :=
      ( it.setup_s *. k,
        float_of_int subjects /. (it.burst_s *. k),
        Samples.quantile lat 0.5 *. k,
        Samples.quantile lat 0.9 *. k,
        Samples.quantile lat 0.99 *. k )
      :: !scaled
  done;
  let its = warm :: !its and scaled = !scaled in
  let k = List.length scaled in
  let attempted = List.length its * subjects in
  let failed = List.fold_left (fun acc it -> acc + it.failed) 0 its in
  let med f = median (List.map f scaled) in
  let setup_s = med (fun (s, _, _, _, _) -> s) and rate = med (fun (_, r, _, _, _) -> r) in
  let p50 = med (fun (_, _, p, _, _) -> p) and p90 = med (fun (_, _, _, p, _) -> p) in
  let p99 = med (fun (_, _, _, _, p) -> p) in
  let heap = List.fold_left (fun acc it -> Float.max acc it.live_mb) 0. its in
  Printf.printf "serve-commit: %d bursts of %d subjects (n=%d t=%d batch=%d, %d connections), \
                 1 warm-up\n"
    (k + 1) subjects n t batch clients;
  Printf.printf "  (timings at the calibrated host speed, medians of %d bursts)\n" k;
  Printf.printf "  decisions_per_s  %12.1f 1/s  (as measured: %.1f)\n" rate (median !raw_rates);
  Printf.printf "  commit_p50_ms    %12.4f ms   (%d per burst)\n" p50 subjects;
  Printf.printf "  commit_p90_ms    %12.4f ms\n" p90;
  Printf.printf "  commit_p99_ms    %12.4f ms\n" p99;
  Printf.printf "  setup_s          %12.5f s\n" setup_s;
  Printf.printf "  heap_peak_mb     %12.3f MB\n" heap;
  Printf.printf "  failed_share     %12.6f ratio (%d of %d submissions)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "heap_peak_mb"; value = heap; unit_ = "MB" };
        { name = "throughput_per_s"; value = rate; unit_ = "1/s" };
        { name = "latency_p50_ms"; value = p50; unit_ = "ms" };
        { name = "latency_p90_ms"; value = p90; unit_ = "ms" };
      ];
  }

(* --- traced run --- *)

(* The daemon's calls for the same burst, in the daemon's order, without
   sockets: each submit line is parsed, queued and acked, then the engine
   steps; a step that commits renders one decision line per slot (the
   daemon renders once and enqueues that line to every client) and
   rewrites the snapshot. *)
let replay ~timed ~cfg ~snapshot lines =
  remove snapshot;
  let layers = Acc.create () in
  let engine =
    match Server.load_engine ~batch ~jobs:1 ~snapshot:(Some snapshot) cfg with
    | Ok e -> e
    | Error e -> failwith e
  in
  let attempts = ref 0 and bytes = ref 0 in
  let clock () = if timed then now () else 0. in
  let t_start = now () in
  Array.iter
    (fun line ->
      let t0 = clock () in
      let req = Rpc.parse line in
      let t1 = clock () in
      match req with
      | Ok (Rpc.Submit { id; subject; inputs }) ->
          let position = Engine.submit engine ~subject inputs in
          let t2 = clock () in
          let _ack =
            Rpc.submit_ack ~id ~position ~slot:(Engine.slot_of engine position)
              ~lane:(Engine.lane_of engine position)
          in
          let t3 = clock () in
          let decided = Engine.step engine in
          let t4 = clock () in
          List.iter (fun s -> ignore (Rpc.decision ~batch s)) decided;
          let t5 = clock () in
          if decided <> [] then Server.write_snapshot engine (Some snapshot);
          let t6 = clock () in
          if timed then begin
            Acc.add layers "rpc.parse_s" (t1 -. t0);
            Acc.add layers "engine.submit_s" (t2 -. t1);
            Acc.add layers "rpc.submit_ack_s" (t3 -. t2);
            Acc.add layers "engine.step_s" (t4 -. t3);
            Acc.add layers "rpc.decision_s" (t5 -. t4);
            Acc.add layers "server.write_snapshot_s" (t6 -. t5);
            List.iter (fun (s : Ledger.slot) -> attempts := !attempts + s.Ledger.attempts) decided;
            if decided <> [] then bytes := !bytes + (Unix.stat snapshot).Unix.st_size
          end
      | _ -> failwith "serve-commit replay: unexpected request")
    lines;
  let wall = now () -. t_start in
  (layers, wall, !attempts, !bytes, Array.of_list (Engine.decisions engine))

let run_traced ~dir ~seed ~seconds =
  let lat = Samples.create 100_000 and acks = Samples.create 100_000 in
  let snapshot = Filename.concat dir "replay.snap" in
  let lines = Array.of_list (List.mapi submit_line (requests ~seed subjects)) in
  let cfg = config seed in
  let expected = reference cfg ~seed in
  let its = ref [] and replays = ref [] and bares = ref [] in
  let t_start = now () in
  while List.length !replays < 2 || now () -. t_start < seconds do
    its := iteration ~dir ~seed ~cfg ~expected ~lat ~acks :: !its;
    replays := replay ~timed:true ~cfg ~snapshot lines :: !replays;
    let _, wall, _, _, _ = replay ~timed:false ~cfg ~snapshot lines in
    bares := wall :: !bares
  done;
  remove snapshot;
  let _, _, a0, b0, _ = List.hd !replays in
  let counts_repeat = List.for_all (fun (_, _, a, b, _) -> a = a0 && b = b0) !replays in
  let replay_wrong =
    List.fold_left
      (fun acc (_, _, _, _, log) -> if log = expected then acc else acc + subjects)
      0 !replays
  in
  let k = List.length !its and r = List.length !replays in
  let attempted = (k + r) * subjects in
  let failed =
    List.fold_left (fun acc it -> acc + it.failed) replay_wrong !its
    + if counts_repeat then 0 else subjects
  in
  let e2e = median (List.map (fun it -> it.burst_s) !its) in
  let parts = median_by_key (List.map (fun (l, _, _, _, _) -> l) !replays) in
  let walls = List.map (fun (_, w, _, _, _) -> w) !replays in
  let overhead = (median walls -. median !bares) /. median !bares in
  Printf.printf "serve-commit traced: %d daemon bursts, %d timed replays, %d bare replays; \
                 counts %s across replays\n"
    k r (List.length !bares)
    (if counts_repeat then "repeat exactly" else "DIFFER");
  let metrics =
    layer_metrics
      {
        workload = "serve-commit";
        e2e_s = e2e;
        e2e_what = "one untraced daemon burst";
        parts;
        residual = "serve.residual_s";
        children = [];
        extra =
          [
            { name = "client.ack_rtt_p50_ms"; value = Samples.quantile acks 0.5; unit_ = "ms" };
            { name = "ledger.attempts"; value = float_of_int a0; unit_ = "count" };
            {
              name = "server.snapshot_bytes_per_decision";
              value = float_of_int b0 /. float_of_int subjects;
              unit_ = "bytes";
            };
          ];
        overhead_ratio = overhead;
        samples =
          Printf.sprintf "median of %d bursts; layers median of %d replays" k r;
      }
  in
  { correct = failed = 0; attempted; failed; metrics }
