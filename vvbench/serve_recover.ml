(* Workload serve-recover: a daemon restarting on an existing snapshot
   and a follower catching up from position 0.

   Set-up commits a log of [height] slots in-process and writes it with
   Server.write_snapshot.  Each timed iteration spawns Server.serve on
   that snapshot, issues `status`, then `catchup` from 0, and checks the
   replayed log against the snapshot's; it makes no consensus runs.

   [height] stays well below the catchup ceiling recorded in NOTES.md: a
   replay whose decision lines exceed Server.default_max_outq (1 MiB) is
   cut off as a slow consumer. *)

open Measure
open Serve_load
module Rpc = Vv_serve.Rpc

let height = 1000

(* Commit [height] slots and write the snapshot; returns the log. *)
let build_snapshot ~cfg ~seed ~snapshot =
  let engine = Engine.create ~batch ~jobs:1 cfg in
  List.iter
    (fun (subject, inputs) -> ignore (Engine.submit engine ~subject inputs))
    (requests ~seed height);
  ignore (Engine.flush engine);
  remove snapshot;
  Server.write_snapshot engine (Some snapshot);
  if not (Engine.all_committed_valid engine) then
    failwith "serve-recover: committed log not all valid";
  Engine.decisions engine

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One set-up: commit the log and write the snapshot.  Returns the log,
   the snapshot's bytes and the time taken. *)
let setup_once ~cfg ~seed ~snapshot =
  let log, dt = time (fun () -> build_snapshot ~cfg ~seed ~snapshot) in
  (log, read_file snapshot, dt)

(* The traced run's set-up: twice, and the two must agree. *)
let setup ~dir ~seed =
  let snapshot = Filename.concat dir "recover.snap" in
  let cfg = config seed in
  let log, bytes, _ = setup_once ~cfg ~seed ~snapshot in
  let log', bytes', _ = setup_once ~cfg ~seed ~snapshot in
  (cfg, snapshot, log, log = log' && bytes = bytes')

type recovery = {
  recover_s : float;
  boot_to_status_s : float;
  live_mb : float;  (** 0 when not sampled *)
  wrong : int;
}

(* [sample_heap]: also measure the live heap while the restarted daemon
   holds the loaded log (a full collection, outside the timed span). *)
let recover ~dir ~cfg ~snapshot ~expected ~sample_heap =
  let socket = Filename.concat dir "recover.sock" in
  let t0 = now () in
  let d = spawn ~socket ~snapshot cfg in
  let conn = Client.connect_unix ~retry_for:10. socket in
  let status_ok =
    match Client.status conn with
    | Ok (Json.Obj fields) -> List.assoc_opt "height" fields = Some (Json.Int height)
    | Ok _ | Error _ -> false
  in
  let t_status = now () in
  let wrong =
    match Client.catchup ~from:0 conn with
    | Ok slots -> if slots = expected then 0 else height
    | Error e -> failwith ("serve-recover: " ^ e)
  in
  let t_end = now () in
  let live_mb = if sample_heap then live_heap_mb () else 0. in
  let (_ : Server.outcome) = stop d conn in
  Client.close conn;
  {
    recover_s = t_end -. t0;
    boot_to_status_s = t_status -. t0;
    live_mb;
    wrong = (if status_ok then wrong else height);
  }

(* The heap is sampled on every 16th recovery: a full collection costs a
   sizeable share of one recovery's time. *)
let recoveries ~dir ~cfg ~snapshot ~expected ~seconds ~min_iters samples =
  let rs = ref [] in
  let t_start = now () in
  while List.length !rs < min_iters || now () -. t_start < seconds do
    let sample_heap = List.length !rs mod 16 = 0 in
    let r = recover ~dir ~cfg ~snapshot ~expected ~sample_heap in
    Samples.add samples (r.recover_s *. 1e3);
    rs := r :: !rs
  done;
  !rs

(* The run repeats rounds of one set-up followed by [round_s] of
   recoveries, so the set-ups are spread over the run like the
   recoveries.  Every set-up must give the same log and snapshot bytes as
   the first, untimed one.  The times are not scaled by the host-speed
   kernel: a recovery's time did not follow it (NOTES.md). *)
let round_s = 1.5

let run_untraced ~dir ~seed ~seconds =
  let snapshot = Filename.concat dir "recover.snap" in
  let cfg = config seed in
  let expected, bytes, _ = setup_once ~cfg ~seed ~snapshot in
  let lat = Samples.create 20_000 in
  let setups = ref [] and rs = ref [] and repeatable = ref true in
  let t_start = now () in
  while List.length !setups < 3 || now () -. t_start < seconds do
    let log, b, setup_dt = setup_once ~cfg ~seed ~snapshot in
    if log <> expected || b <> bytes then repeatable := false;
    setups := setup_dt :: !setups;
    rs := recoveries ~dir ~cfg ~snapshot ~expected ~seconds:round_s ~min_iters:1 lat @ !rs
  done;
  let rs = !rs in
  let k = List.length rs in
  let attempted = k * height in
  let failed =
    if !repeatable then List.fold_left (fun acc r -> acc + r.wrong) 0 rs else attempted
  in
  let setup_s = median !setups in
  let p50 = Samples.quantile lat 0.5 and p90 = Samples.quantile lat 0.9 in
  let p99 = Samples.quantile lat 0.99 in
  let rate = float_of_int height /. (p50 *. 1e-3) in
  let heap = List.fold_left (fun acc r -> Float.max acc r.live_mb) 0. rs in
  Printf.printf "serve-recover: %d recoveries of a %d-slot log (batch=%d, 1 connection)\n"
    k height batch;
  Printf.printf "  recover_s        %12.6f s    (median of %d)\n" (p50 *. 1e-3) k;
  Printf.printf "  recover_p90_ms   %12.4f ms\n" p90;
  Printf.printf "  recover_p99_ms   %12.4f ms\n" p99;
  Printf.printf "  slots_per_s      %12.1f 1/s  (height / median recover_s)\n" rate;
  Printf.printf "  setup_s          %12.5f s    (median of %d set-ups)\n" setup_s
    (List.length !setups);
  Printf.printf "  heap_peak_mb     %12.3f MB\n" heap;
  Printf.printf "  failed_share     %12.6f ratio (%d of %d slots)\n"
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

(* The recovery's calls without sockets, in the daemon's order: load the
   snapshot, select the replay, render one decision line per slot; then
   the client's parse of each line.  Also returns the bytes the catchup
   puts on the wire (response line plus decision lines). *)
let replay ~timed ~cfg ~snapshot ~expected =
  let layers = Acc.create () in
  let clock () = if timed then now () else 0. in
  let t_start = now () in
  let t0 = clock () in
  let engine =
    match Server.load_engine ~batch ~jobs:1 ~snapshot:(Some snapshot) cfg with
    | Ok e -> e
    | Error e -> failwith e
  in
  let t1 = clock () in
  let replay = Engine.decisions_from engine 0 in
  let t2 = clock () in
  let lines = List.map (Rpc.decision ~batch) replay in
  let t3 = clock () in
  let parsed = List.filter_map Rpc.decision_of_line lines in
  let t4 = clock () in
  let wall = now () -. t_start in
  Acc.add layers "server.load_engine_s" (t1 -. t0);
  Acc.add layers "engine.decisions_from_s" (t2 -. t1);
  Acc.add layers "rpc.decision_s" (t3 -. t2);
  Acc.add layers "rpc.decision_of_line_s" (t4 -. t3);
  let response =
    Rpc.result ~id:(Json.String "catchup")
      (Json.Obj [ ("replaying", Json.Int (List.length replay)) ])
  in
  let bytes =
    List.fold_left (fun acc l -> acc + String.length l + 1) (String.length response + 1) lines
  in
  (layers, wall, bytes, parsed = expected)

let run_traced ~dir ~seed ~seconds =
  let cfg, snapshot, expected, repeatable = setup ~dir ~seed in
  let lat = Samples.create 20_000 in
  let rs = ref [] and replays = ref [] and bares = ref [] in
  let t_start = now () in
  while List.length !replays < 2 || now () -. t_start < seconds do
    rs := recoveries ~dir ~cfg ~snapshot ~expected ~seconds:0.5 ~min_iters:1 lat @ !rs;
    replays := replay ~timed:true ~cfg ~snapshot ~expected :: !replays;
    let _, wall, _, _ = replay ~timed:false ~cfg ~snapshot ~expected in
    bares := wall :: !bares
  done;
  let _, _, bytes0, _ = List.hd !replays in
  let counts_repeat = List.for_all (fun (_, _, b, _) -> b = bytes0) !replays in
  let replay_ok = List.for_all (fun (_, _, _, ok) -> ok) !replays in
  let k = List.length !rs and r = List.length !replays in
  let attempted = (k + r) * height in
  let failed =
    if repeatable && counts_repeat && replay_ok then
      List.fold_left (fun acc x -> acc + x.wrong) 0 !rs
    else attempted
  in
  let e2e = median (List.map (fun x -> x.recover_s) !rs) in
  let boot = median (List.map (fun x -> x.boot_to_status_s) !rs) in
  let meds = median_by_key (List.map (fun (l, _, _, _) -> l) !replays) in
  let walls = List.map (fun (_, w, _, _) -> w) !replays in
  let overhead = (median walls -. median !bares) /. median !bares in
  Printf.printf "serve-recover traced: %d recoveries, %d timed replays, %d bare replays; \
                 counts %s across replays\n"
    k r (List.length !bares)
    (if counts_repeat then "repeat exactly" else "DIFFER");
  let metrics =
    layer_metrics
      {
        workload = "serve-recover";
        e2e_s = e2e;
        e2e_what = "one untraced recovery (spawn -> verified log)";
        parts =
          ("server.boot_to_status_s", boot)
          :: List.filter (fun (k, _) -> k <> "server.load_engine_s") meds;
        residual = "serve.residual_s";
        children =
          [ ("server.load_engine_s", "server.boot_to_status_s",
             List.assoc "server.load_engine_s" meds) ];
        extra = [ { name = "catchup.bytes"; value = float_of_int bytes0; unit_ = "bytes" } ];
        overhead_ratio = overhead;
        samples = Printf.sprintf "median of %d recoveries; layers median of %d replays" k r;
      }
  in
  { correct = failed = 0; attempted; failed; metrics }
