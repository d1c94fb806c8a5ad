(* Experiment E19: follower replication with primary crash-recovery.

   Each cell stages the full replication lifecycle with real daemons:
   boot a primary and a follower (each in its own domain, each on its own
   Unix socket, each with its own snapshot file), drive burst A through
   the primary and let the decisions stream to the follower, then kill
   the primary, restart it from its snapshot — exercising the
   stale-socket probe in {!Server.listen_unix} and the follower's
   reconnect-and-re-catchup path — and drive burst B.  The cell passes
   when the follower's replayed log is structurally identical to the
   primary's, every submitted subject decided exactly once, and the
   follower made exactly two catchups (boot + post-restart reconnect).

   Racy cells drive burst B with {!Client.run_load_racy}: submissions
   race across connections, so the position assignment — and with it the
   committed/attempts figures — is scheduling-dependent.  Those columns
   print "-" and the pinned facts shrink to what survives the race: the
   decided-subject set, follower ≡ primary, validity, and the catchup
   count.  Deterministic cells additionally pin the whole ledger against
   an in-process {!Engine.run} over the concatenated bursts, proving the
   crash/restart seam assigns positions exactly as an uninterrupted run
   would. *)

module Table = Vv_prelude.Table
module Rng = Vv_prelude.Rng
module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Server = Vv_serve.Server
module Replica = Vv_serve.Replica
module Client = Vv_serve.Client
module Campaign = Vv_exec.Campaign

type cell = {
  batch : int;
  clients : int;
  sa : int;  (* burst A subjects, before the primary crash *)
  sb : int;  (* burst B subjects, after the restart *)
  racy : bool;  (* burst B ack-serialized or all-in-flight *)
}

type row = {
  stats : Engine.stats;  (* of the primary's final log *)
  follower_eq : bool;  (* follower log == primary log after resync *)
  matches_local : bool;  (* deterministic cells: log == Engine.run *)
  subjects_ok : bool;  (* every subject decided exactly once *)
  catchups : int;  (* follower's successful primary connections *)
  clean : bool;  (* no errors, both daemons shut down orderly *)
}

let cells = function
  | Campaign.Smoke ->
      [ { batch = 2; clients = 2; sa = 10; sb = 10; racy = false } ]
  | Campaign.Full ->
      [
        { batch = 4; clients = 3; sa = 24; sb = 24; racy = false };
        { batch = 4; clients = 4; sa = 24; sb = 24; racy = true };
        { batch = 8; clients = 4; sa = 32; sb = 32; racy = false };
      ]

let n = 9
let t = 2

let config seed =
  Ledger.config
    ~byzantine:(List.init t (fun i -> n - 1 - i))
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~seed ~n ~t ()

let requests ~seed ~first count =
  let rng = Rng.create (Rng.derive seed (1 + first)) in
  let dist = Vv_dist.Multinomial.create ~n:(n - t) ~p:[| 0.5; 0.3; 0.2 |] in
  List.init count (fun i ->
      let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
      (first + i, honest @ List.init t (fun _ -> Oid.of_int 0)))

let shutdown_via path =
  let c = Client.connect_unix ~retry_for:5. path in
  let r =
    Client.request c ~id:(Json.String "stop") ~meth:"shutdown" (Json.Obj [])
  in
  Client.close c;
  match r with Ok _ -> true | Error _ -> false

(* Poll the follower until its replicated height reaches [target]. *)
let await_height ~deadline path target =
  let c = Client.connect_unix ~retry_for:5. path in
  let rec poll () =
    match Client.status c with
    | Ok (Json.Obj fields) when Json.member "height" fields
                                = Some (Json.Int target) ->
        true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        Unix.sleepf 0.02;
        poll ()
  in
  let reached = poll () in
  Client.close c;
  reached

let read_log path =
  let c = Client.connect_unix ~retry_for:5. path in
  let log = Client.catchup ~from:0 c in
  Client.close c;
  log

let run_cell (ctx : Campaign.ctx) cell =
  let cfg = config ctx.Campaign.cell_seed in
  let stem =
    Printf.sprintf "%s/vvc-e19-%d-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) ctx.Campaign.index
  in
  let sock_p = stem ^ "-p.sock" and sock_f = stem ^ "-f.sock" in
  let snap_p = stem ^ "-p.snap" and snap_f = stem ^ "-f.snap" in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ sock_p; sock_f; snap_p; snap_f ];
  let boot_primary () =
    let listen = Server.listen_unix sock_p in
    let d =
      Domain.spawn (fun () ->
          Server.serve ~batch:cell.batch ~jobs:ctx.Campaign.jobs
            ~snapshot:snap_p ~listen cfg)
    in
    (listen, d)
  in
  let listen_p, primary = boot_primary () in
  let listen_f = Server.listen_unix sock_f in
  let follower =
    Domain.spawn (fun () ->
        Replica.run ~batch:cell.batch ~jobs:ctx.Campaign.jobs
          ~snapshot:snap_f ~retry_every:0.05
          ~primary:(Unix.ADDR_UNIX sock_p) ~listen:listen_f cfg)
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "e19 cell %d: %s" ctx.Campaign.index msg))
      fmt
  in
  let burst ~racy reqs =
    let conns =
      List.init cell.clients (fun _ -> Client.connect_unix ~retry_for:10. sock_p)
    in
    let driver = if racy then Client.run_load_racy else Client.run_load in
    let r = driver ~conns reqs in
    List.iter Client.close conns;
    match r with Ok rep -> rep | Error msg -> fail "burst: %s" msg
  in
  (* Burst A, then crash the primary and bring it back from its snapshot. *)
  let reqs_a = requests ~seed:ctx.Campaign.cell_seed ~first:0 cell.sa in
  let rep_a = burst ~racy:false reqs_a in
  if not (shutdown_via sock_p) then fail "primary shutdown (pre-crash)";
  let (_ : Server.outcome) = Domain.join primary in
  Unix.close listen_p;
  (* The dead listener's socket file survives; the restart's listen_unix
     must probe it, find no live daemon, and reclaim the path. *)
  let listen_p, primary = boot_primary () in
  let reqs_b = requests ~seed:ctx.Campaign.cell_seed ~first:cell.sa cell.sb in
  let rep_b = burst ~racy:cell.racy reqs_b in
  let total = cell.sa + cell.sb in
  let primary_log =
    match read_log sock_p with
    | Ok l -> l
    | Error msg -> fail "primary catchup: %s" msg
  in
  (* The follower re-catches-up on its own clock; wait for convergence. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let converged = await_height ~deadline sock_f total in
  let follower_log =
    match read_log sock_f with
    | Ok l -> l
    | Error msg -> fail "follower catchup: %s" msg
  in
  if not (shutdown_via sock_f) then fail "follower shutdown";
  let f_out = Domain.join follower in
  Unix.close listen_f;
  if not (shutdown_via sock_p) then fail "primary shutdown (final)";
  let (_ : Server.outcome) = Domain.join primary in
  Unix.close listen_p;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ sock_p; sock_f; snap_p; snap_f ];
  let subjects_of log =
    List.sort compare (List.map (fun (s : Ledger.slot) -> s.Ledger.subject) log)
  in
  let matches_local =
    cell.racy
    || primary_log = fst (Engine.run ~batch:cell.batch ~jobs:1 cfg (reqs_a @ reqs_b))
  in
  {
    stats =
      Engine.stats_of ~batch:cell.batch ~bb:cfg.Ledger.bb ~n:cfg.Ledger.n
        ~t:cfg.Ledger.t primary_log;
    follower_eq = converged && follower_log = primary_log;
    matches_local;
    subjects_ok = subjects_of primary_log = List.init total Fun.id;
    catchups = f_out.Replica.catchups;
    clean =
      rep_a.Client.errors = [] && rep_b.Client.errors = []
      && List.length primary_log = total;
  }

let collect _profile pairs =
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E19: follower replication across a primary crash (n=%d t=%d, \
            SCT, rotate-and-adjust)"
           n t)
      ~headers:
        [ "batch"; "clients"; "subjects"; "racy"; "committed"; "attempts";
          "log==local"; "follower=="; "subjects"; "catchups"; "valid" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (cell, r) ->
      (* Racy cells race position assignment, so any position-dependent
         figure is scheduling noise: print "-" and pin only what the race
         preserves. *)
      let det s = if cell.racy then "-" else s in
      Table.add_row tab
        [
          Table.icell cell.batch;
          Table.icell cell.clients;
          Table.icell (cell.sa + cell.sb);
          Table.bcell cell.racy;
          det (Table.icell r.stats.Engine.committed);
          det (Table.icell r.stats.Engine.attempts_total);
          det (Table.bcell r.matches_local);
          Table.bcell r.follower_eq;
          Table.bcell r.subjects_ok;
          Table.icell r.catchups;
          Table.bcell r.stats.Engine.all_valid;
        ])
    pairs;
  let ok =
    List.for_all
      (fun (_, r) ->
        r.follower_eq && r.matches_local && r.subjects_ok && r.clean
        && r.catchups = 2 && r.stats.Engine.all_valid)
      pairs
  in
  {
    Campaign.tables = [ tab ];
    ok;
    verdict =
      Some
        (Fmt.str
           "%s: follower resynced byte-identically across a primary crash \
            in %d/%d cells"
           (if ok then "OK" else "DIVERGED")
           (List.length
              (List.filter (fun (_, r) -> r.follower_eq) pairs))
           (List.length pairs));
  }

let e19_campaign =
  Campaign.v ~id:"e19"
    ~what:
      "follower replication: catchup resync, primary crash-recovery, and \
       racy-load subject-set equivalence"
    ~seed:0xe19
    ~cells ~run_cell ~collect ()
