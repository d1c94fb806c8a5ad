(* What the two serve workloads share: E18's ledger configuration and
   input distribution, the request list drawn from the workload seed, and
   a daemon running Server.serve in its own domain on a Unix socket
   inside the run's scratch directory. *)

module Json = Vv_prelude.Json
module Rng = Vv_prelude.Rng
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine
module Server = Vv_serve.Server
module Client = Vv_serve.Client

(* n=9, t=2 with the two highest ids Byzantine, SCT, rotate-and-adjust
   retries: the E18 cells' configuration. *)
let n = 9
let t = 2
let batch = 4

let config seed =
  Ledger.config
    ~byzantine:(List.init t (fun i -> n - 1 - i))
    ~retry:(Ledger.Rotate_and_adjust (Vv_core.Session.Bandwagon, 6))
    ~seed ~n ~t ()

(* Honest preferences drawn from a 0.5/0.3/0.2 multinomial, Byzantine
   slots filled with option 0, as E18 draws them. *)
let requests ~seed count =
  let rng = Rng.create (Rng.derive seed 1) in
  let dist = Vv_dist.Multinomial.create ~n:(n - t) ~p:[| 0.5; 0.3; 0.2 |] in
  List.init count (fun subject ->
      let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
      (subject, honest @ List.init t (fun _ -> Oid.of_int 0)))

(* The submit line Client.run_load would send for request [i]. *)
let submit_line i (subject, inputs) =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int i);
         ("method", Json.String "submit");
         ( "params",
           Json.Obj
             [
               ("subject", Json.Int subject);
               ("inputs", Json.List (List.map (fun o -> Json.Int (Oid.to_int o)) inputs));
             ] );
       ])

let remove path = if Sys.file_exists path then Sys.remove path

type daemon = {
  listen : Unix.file_descr;
  domain : Server.outcome Domain.t;
  socket : string;
}

let spawn ~socket ~snapshot cfg =
  remove socket;
  let listen = Server.listen_unix socket in
  let domain =
    Domain.spawn (fun () -> Server.serve ~batch ~jobs:1 ~snapshot ~listen cfg)
  in
  { listen; domain; socket }

(* Ask the daemon to stop over [conn] (or a fresh connection when the
   given one is gone) and wait for its domain to end. *)
let stop d conn =
  let ask c =
    Client.request ~timeout:30. c ~id:(Json.String "shutdown") ~meth:"shutdown"
      (Json.Obj [])
  in
  (match ask conn with
  | Ok _ -> ()
  | Error _ ->
      let c = Client.connect_unix ~retry_for:5. d.socket in
      ignore (ask c);
      Client.close c);
  let outcome = Domain.join d.domain in
  Unix.close d.listen;
  remove d.socket;
  outcome
