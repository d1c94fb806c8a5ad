(* Experiment E18: sustained multi-shot throughput through the serve
   daemon.

   Each cell boots a real `vvc serve` daemon (its own domain, a Unix
   socket in the temp directory), connects a pool of clients, and drives
   an ack-serialized round-robin burst of subjects through the JSON-RPC
   protocol — the same wire path production traffic takes.  The decision
   stream is reconstructed on the client side and cross-checked
   byte-for-byte against an in-process {!Engine.run} on the identical
   request list, so the table proves the socket path changes nothing.

   The emitted table carries only deterministic columns (committed,
   attempts, pipelined round counts, validity, the local cross-check);
   the wall-clock decisions/s figure is nondeterministic by nature and is
   reported in the verdict line, which golden pinning ignores. *)

module Table = Vv_prelude.Table
module Rng = Vv_prelude.Rng
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Server = Vv_serve.Server
module Client = Vv_serve.Client
module Campaign = Vv_exec.Campaign

type cell = { batch : int; clients : int; subjects : int }

type row = {
  stats : Engine.stats;
  rate : float;  (* decisions/s, wall-clock — verdict only, never a table *)
  matches_local : bool;  (* served log == in-process Engine.run log *)
  clean : bool;  (* no error responses, every submission decided *)
}

let cells = function
  | Campaign.Smoke -> [ { batch = 2; clients = 2; subjects = 12 } ]
  | Campaign.Full ->
      [
        { batch = 1; clients = 1; subjects = 64 };
        { batch = 4; clients = 4; subjects = 192 };
        { batch = 8; clients = 8; subjects = 192 };
      ]

let n = 9
let t = 2

let config seed =
  Ledger.config
    ~byzantine:(List.init t (fun i -> n - 1 - i))
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~seed ~n ~t ()

(* The request list is the cell's entire identity: positions are assigned
   in list order (the driver ack-serializes), so the committed ledger is a
   pure function of (cell_seed, subjects). *)
let requests ~seed count =
  let rng = Rng.create (Rng.derive seed 1) in
  let dist = Vv_dist.Multinomial.create ~n:(n - t) ~p:[| 0.5; 0.3; 0.2 |] in
  List.init count (fun subject ->
      let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
      (subject, honest @ List.init t (fun _ -> Oid.of_int 0)))

let run_cell (ctx : Campaign.ctx) cell =
  let cfg = config ctx.Campaign.cell_seed in
  let reqs = requests ~seed:ctx.Campaign.cell_seed cell.subjects in
  let path =
    Printf.sprintf "%s/vvc-e18-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) ctx.Campaign.index
  in
  let listen = Server.listen_unix path in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve ~batch:cell.batch ~jobs:ctx.Campaign.jobs ~listen cfg)
  in
  let conns =
    List.init cell.clients (fun _ -> Client.connect_unix ~retry_for:10. path)
  in
  let report =
    match Client.run_load ~shutdown:true ~conns reqs with
    | Ok r -> r
    | Error msg ->
        List.iter Client.close conns;
        Unix.close listen;
        failwith (Printf.sprintf "e18 cell %d: %s" ctx.Campaign.index msg)
  in
  let (_ : Server.outcome) = Domain.join daemon in
  List.iter Client.close conns;
  Unix.close listen;
  if Sys.file_exists path then Sys.remove path;
  (* Same requests through an in-process engine: the socket path must not
     change a single decision. *)
  let expected, _ = Engine.run ~batch:cell.batch ~jobs:1 cfg reqs in
  let stats =
    Engine.stats_of ~batch:cell.batch ~bb:cfg.Ledger.bb ~n:cfg.Ledger.n
      ~t:cfg.Ledger.t report.Client.decisions
  in
  {
    stats;
    rate = report.Client.rate;
    matches_local = report.Client.decisions = expected;
    clean =
      report.Client.errors = []
      && List.length report.Client.decisions = cell.subjects;
  }

let collect _profile pairs =
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E18: serve daemon load generation (n=%d t=%d, SCT, \
            rotate-and-adjust)"
           n t)
      ~headers:
        [ "batch"; "clients"; "subjects"; "committed"; "skipped"; "attempts";
          "rounds seq"; "rounds piped"; "pipe speedup"; "valid"; "match" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (cell, r) ->
      Table.add_row tab
        [
          Table.icell cell.batch;
          Table.icell cell.clients;
          Table.icell cell.subjects;
          Table.icell r.stats.Engine.committed;
          Table.icell r.stats.Engine.skipped;
          Table.icell r.stats.Engine.attempts_total;
          Table.icell r.stats.Engine.rounds_sequential;
          Table.icell r.stats.Engine.rounds_pipelined;
          Table.fcell ~decimals:2
            (float_of_int r.stats.Engine.rounds_sequential
            /. float_of_int (max 1 r.stats.Engine.rounds_pipelined));
          Table.bcell r.stats.Engine.all_valid;
          Table.bcell r.matches_local;
        ])
    pairs;
  let ok =
    List.for_all
      (fun (_, r) -> r.matches_local && r.clean && r.stats.Engine.all_valid)
      pairs
  in
  let peak =
    List.fold_left (fun acc (_, r) -> Float.max acc r.rate) 0. pairs
  in
  {
    Campaign.tables = [ tab ];
    ok;
    verdict =
      Some
        (Fmt.str "%s: sustained %.0f decisions/s at peak over %d cells"
           (if ok then "OK" else "MISMATCH")
           peak (List.length pairs));
  }

let e18_campaign =
  Campaign.v ~id:"e18"
    ~what:
      "serve daemon under load: JSON-RPC throughput, pipelining, and \
       socket-vs-local equivalence"
    ~seed:0xe18
    ~cells ~run_cell ~collect ()
