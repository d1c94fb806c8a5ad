(* Client side of the serve protocol: blocking line-at-a-time
   connections and the load drivers behind `vvc load` / campaigns
   E18–E19.  A connection reads and writes through a {!Chan}, the
   daemon's own channel, so a client has the daemon's reader and its
   1 MiB line bound; it blocks in [select] where the daemon's loop would
   move on.

   Two drivers.  [run_load] is ack-serialized: it never sends submission
   k+1 before the ack for submission k has come back, even though the
   submissions round-robin across many connections.  Serializing on acks
   pins the position of every subject, so the same (seed, subjects)
   always yields the same ledger and campaign tables can be
   golden-pinned.  [run_load_racy] embraces the race instead: every
   submission is fired without waiting, the kernel's cross-socket
   scheduling picks the arrival order — and with it the position
   assignment — so only the *set* of decided subjects is reproducible,
   not their positions.  That is the mode that exercises the daemon's
   concurrent submit path hardest; callers verify set-equality of
   subjects rather than a byte-identical log.

   Responses that arrive while waiting for a different id (pipelined
   requests, an out-of-order server) are stashed per connection and
   handed back when their id is finally awaited — never silently
   dropped.  Connection errors (a server dying mid-read) surface as
   [None]/[Error], never as exceptions escaping the driver. *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger

(* A connection is a {!Chan}: the lines one [Chan.read_lines] call
   returned wait in [lines] until they are taken. *)
type conn = {
  chan : Chan.t;
  mutable lines : string list;
  stash : (string, Json.t) Hashtbl.t;
      (* responses read while awaiting a different id, keyed by
         rendered id *)
}

(* Connect-retry pacing: capped exponential backoff with deterministic
   seeded jitter.  The base delay doubles per attempt up to [retry_cap];
   each slot is then scaled by a jitter factor in [0.5, 1.0) derived
   purely from (seed, attempt), so a fleet of clients racing a
   restarting daemon (`vvc load` with many connections, `vvc serve
   --follow`) de-synchronizes instead of thundering-herding the listen
   backlog — while any single client's schedule stays reproducible. *)
let retry_base = 0.05

let retry_cap = 1.0

let retry_delay ~seed ~attempt =
  if attempt < 1 then invalid_arg "Client.retry_delay: attempt must be >= 1";
  let slot =
    (* min over floats of the doubling series, without overflowing at
       large attempt counts *)
    if float_of_int (attempt - 1) > 40. then retry_cap
    else Float.min (retry_base *. (2. ** float_of_int (attempt - 1))) retry_cap
  in
  let rng = Vv_prelude.Rng.create (Vv_prelude.Rng.derive seed attempt) in
  slot *. (0.5 +. (0.5 *. Vv_prelude.Rng.float rng))

let rec connect_retry ~deadline ~seed ~attempt addr =
  (* A server dying mid-send must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd =
    Unix.socket
      (match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  match Unix.connect fd addr with
  | () -> { chan = Chan.of_fd fd; lines = []; stash = Hashtbl.create 8 }
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      let pause = retry_delay ~seed ~attempt in
      let remaining = deadline -. Unix.gettimeofday () in
      Unix.sleepf (Float.min pause (Float.max remaining 0.));
      connect_retry ~deadline ~seed ~attempt:(attempt + 1) addr
  | exception e ->
      Unix.close fd;
      raise e

let connect ?(retry_for = 0.) ?retry_seed addr =
  (* Default jitter seed: distinct per process and address, so
     concurrent clients spread out; pass [retry_seed] for a
     reproducible schedule. *)
  let seed =
    match retry_seed with
    | Some s -> s
    | None -> Hashtbl.hash (Unix.getpid (), addr)
  in
  connect_retry
    ~deadline:(Unix.gettimeofday () +. retry_for)
    ~seed ~attempt:1 addr

let connect_unix ?retry_for ?retry_seed path =
  connect ?retry_for ?retry_seed (Unix.ADDR_UNIX path)

let connect_tcp ?retry_for ?retry_seed ?(host = "127.0.0.1") port =
  connect ?retry_for ?retry_seed
    (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))

let close conn = Chan.close conn.chan

(* The line waits in the channel's unsent bytes until writes have taken
   it all.  A channel that died on the way (the peer is gone) raises, as
   a failed write did. *)
let send conn line =
  Chan.enqueue conn.chan line;
  let rec drain () =
    Chan.flush_write conn.chan;
    if not (Chan.alive conn.chan) then
      raise (Unix.Unix_error (Unix.EPIPE, "send", ""))
    else if Chan.unsent conn.chan > 0 then begin
      (try ignore (Unix.select [] [ Chan.fd conn.chan ] [] (-1.))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  drain ()

(* Blocking read of the next line, [None] on EOF, deadline, or a
   connection error (the server dying mid-read must not escape the load
   driver as an exception), or once the channel cuts off an overlong
   line. *)
let recv_line ?(timeout = 30.) conn =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match conn.lines with
    | line :: rest ->
        conn.lines <- rest;
        Some line
    | [] -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. || not (Chan.alive conn.chan) then None
        else
          match Unix.select [ Chan.fd conn.chan ] [] [] remaining with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | [], _, _ -> None
          | _ ->
              conn.lines <- Chan.read_lines conn.chan;
              loop ())
  in
  loop ()

(* --- the load drivers --- *)

type report = {
  submitted : int;
  decisions : Ledger.slot list;  (* in position order, deduplicated *)
  status : Json.t option;
  elapsed : float;
  rate : float;  (* decisions per second of driver wall-clock *)
  errors : string list;
}

(* Shared sink for decision notifications: every connection receives the
   full broadcast stream, so dedupe by position. *)
type sink = {
  seen : (int, Ledger.slot) Hashtbl.t;
  mutable errs : string list;
}

let fresh_sink () = { seen = Hashtbl.create 256; errs = [] }

(* Parse a received line once: a decision notification goes to the sink;
   any other line that parses is returned for the caller to read. *)
let receive sink line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> (
      match Rpc.decision_of_json j with
      | Some s ->
          if not (Hashtbl.mem sink.seen s.Ledger.index) then
            Hashtbl.replace sink.seen s.Ledger.index s;
          None
      | None -> Some j)

let error_message e =
  match Json.member "message" e with
  | Some (Json.String m) -> m
  | _ -> "unspecified server error"

(* Interpret a response object: error payloads are recorded in the sink
   and collapse to [Ok Null], results pass through. *)
let interpret sink fields =
  match Json.member "error" fields with
  | Some (Json.Obj e) ->
      sink.errs <- error_message e :: sink.errs;
      Ok Json.Null
  | _ -> Ok (Option.value ~default:Json.Null (Json.member "result" fields))

(* Read lines off [conn] (feeding decisions to the sink) until the
   response echoing [id] appears; well-formed responses carrying a
   different id are stashed on the connection, not discarded, so a later
   wait for that id finds them. *)
let wait_response_sink ?timeout sink conn ~id =
  let key = Json.to_string id in
  match Hashtbl.find_opt conn.stash key with
  | Some stashed -> (
      Hashtbl.remove conn.stash key;
      match stashed with
      | Json.Obj fields -> interpret sink fields
      | _ -> Error "malformed stashed response")
  | None ->
      let rec loop () =
        match recv_line ?timeout conn with
        | None -> Error "connection closed or timed out awaiting response"
        | Some line -> (
            match receive sink line with
            | Some (Json.Obj fields as response) -> (
                match Json.member "id" fields with
                | Some rid when rid = id -> interpret sink fields
                | Some rid ->
                    Hashtbl.replace conn.stash (Json.to_string rid) response;
                    loop ()
                | None -> loop ())
            | _ -> loop ())
      in
      loop ()

let request_sink ?timeout sink conn ~id ~meth params =
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", id); ("method", Json.String meth); ("params", params) ])
  in
  match send conn line with
  | () -> wait_response_sink ?timeout sink conn ~id
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "send %s: %s" meth (Unix.error_message e))

(* Public one-off forms: decision notifications are dropped, server error
   responses surface as [Error]. *)
let lift_errs sink = function
  | Ok Json.Null when sink.errs <> [] ->
      Error (String.concat "; " (List.rev sink.errs))
  | r -> r

let wait_response ?timeout conn ~id =
  let sink = fresh_sink () in
  lift_errs sink (wait_response_sink ?timeout sink conn ~id)

let request ?timeout conn ~id ~meth params =
  let sink = fresh_sink () in
  lift_errs sink (request_sink ?timeout sink conn ~id ~meth params)

(* One-off status query on an otherwise idle connection, for callers that
   need the daemon's shape (n, t, batch) before building a load. *)
let status ?timeout conn =
  request ?timeout conn ~id:(Json.String "probe") ~meth:"status"
    (Json.Obj [])

(* Replay the committed log from [from]: the decisions stream in order
   immediately after the response, so the next [replaying] decision lines
   are exactly the replay. *)
let catchup ?timeout ?(from = 0) conn =
  let sink = fresh_sink () in
  match
    request_sink ?timeout sink conn ~id:(Json.String "catchup")
      ~meth:"catchup"
      (Json.Obj [ ("from", Json.Int from) ])
  with
  | Error _ as e -> e
  | Ok (Json.Obj fields) -> (
      match Json.member "replaying" fields with
      | Some (Json.Int count) ->
          let rec take acc k =
            if k = 0 then Ok (List.rev acc)
            else
              match recv_line ?timeout conn with
              | None -> Error "catchup: replay stream ended early"
              | Some line -> (
                  match Rpc.decision_of_line line with
                  | Some s -> take (s :: acc) (k - 1)
                  | None -> take acc k)
          in
          take [] count
      | _ -> Error "catchup: response carries no replaying count")
  | Ok _ -> Error (String.concat "; " (List.rev sink.errs))

let sorted_decisions sink =
  Hashtbl.fold (fun _ s acc -> s :: acc) sink.seen []
  |> List.sort (fun (a : Ledger.slot) b -> compare a.Ledger.index b.Ledger.index)

(* Flush the trailing partial slot, drain the broadcast stream on [first]
   until [target] distinct positions have decided, then read the final
   status (and optionally ask the server to stop). *)
let finish ~timeout ~shutdown ~target sink first =
  let ( let* ) = Result.bind in
  let* _ =
    request_sink ~timeout sink first ~id:(Json.String "flush") ~meth:"flush"
      (Json.Obj [])
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec drain () =
    if Hashtbl.length sink.seen >= target then Ok ()
    else if Unix.gettimeofday () > deadline then
      Error
        (Printf.sprintf "drain: %d of %d decisions after %.0fs"
           (Hashtbl.length sink.seen) target timeout)
    else
      match recv_line ~timeout:(deadline -. Unix.gettimeofday ()) first with
      | None ->
          Error
            (Printf.sprintf "drain: stream ended at %d of %d decisions"
               (Hashtbl.length sink.seen) target)
      | Some line ->
          ignore (receive sink line);
          drain ()
  in
  let* () = drain () in
  let* status =
    request_sink ~timeout sink first ~id:(Json.String "status") ~meth:"status"
      (Json.Obj [])
  in
  let* () =
    if shutdown then
      Result.map ignore
        (request_sink ~timeout sink first ~id:(Json.String "shutdown")
           ~meth:"shutdown" (Json.Obj []))
    else Ok ()
  in
  Ok status

let submit_params (subject, inputs) =
  Json.Obj
    [
      ("subject", Json.Int subject);
      ( "inputs",
        Json.List (List.map (fun o -> Json.Int (Oid.to_int o)) inputs) );
    ]

let report_of ~submitted ~status ~started sink =
  let decisions = sorted_decisions sink in
  let elapsed = Unix.gettimeofday () -. started in
  {
    submitted;
    decisions;
    status = (if status = Json.Null then None else Some status);
    elapsed;
    rate =
      (if elapsed > 0. then float_of_int (List.length decisions) /. elapsed
       else 0.);
    errors = List.rev sink.errs;
  }

let run_load ?(timeout = 30.) ?(shutdown = false) ~conns subjects =
  match conns with
  | [] -> Error "run_load: need at least one connection"
  | first :: _ ->
      let conn_arr = Array.of_list conns in
      let nconns = Array.length conn_arr in
      let sink = fresh_sink () in
      let started = Unix.gettimeofday () in
      let submitted = ref 0 in
      let rec submit_all i = function
        | [] -> Ok ()
        | req :: rest -> (
            let conn = conn_arr.(i mod nconns) in
            match
              request_sink ~timeout sink conn ~id:(Json.Int i) ~meth:"submit"
                (submit_params req)
            with
            | Error msg -> Error (Printf.sprintf "submit %d: %s" i msg)
            | Ok _ ->
                incr submitted;
                submit_all (i + 1) rest)
      in
      let ( let* ) = Result.bind in
      let* () = submit_all 0 subjects in
      let* status =
        finish ~timeout ~shutdown ~target:!submitted sink first
      in
      Ok (report_of ~submitted:!submitted ~status ~started sink)

(* --- the racy driver --- *)

(* Every line one connection has ready, without blocking. *)
let poll_lines conn =
  let lines = conn.lines @ Chan.read_lines conn.chan in
  conn.lines <- [];
  lines

let run_load_racy ?(timeout = 30.) ?(shutdown = false) ~conns subjects =
  match conns with
  | [] -> Error "run_load_racy: need at least one connection"
  | first :: _ ->
      let conn_arr = Array.of_list conns in
      let nconns = Array.length conn_arr in
      (* A connection whose channel died stays readable at EOF forever,
         so only live ones are selected. *)
      let fds () =
        List.filter_map
          (fun c -> if Chan.alive c.chan then Some (Chan.fd c.chan) else None)
          conns
      in
      let sink = fresh_sink () in
      let answered = Hashtbl.create 256 in  (* submit id -> accepted? *)
      let started = Unix.gettimeofday () in
      let process line =
        match receive sink line with
        | Some (Json.Obj fields) -> (
            match Json.member "id" fields with
            | Some (Json.Int i) -> (
                match Json.member "error" fields with
                | Some (Json.Obj e) ->
                    sink.errs <-
                      Printf.sprintf "submit %d: %s" i (error_message e)
                      :: sink.errs;
                    Hashtbl.replace answered i false
                | _ -> Hashtbl.replace answered i true)
            | _ -> ())
        | _ -> ()
      in
      let rec sweep () =
        match Unix.select (fds ()) [] [] 0. with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> sweep ()
        | [], _, _ -> ()
        | readable, _, _ ->
            List.iter
              (fun c ->
                if List.mem (Chan.fd c.chan) readable then
                  List.iter process (poll_lines c))
              conns;
            sweep ()
      in
      (* Fire every submission without waiting for acks; the kernel's
         cross-socket scheduling picks the arrival order. Opportunistic
         sweeps keep our receive buffers drained while we send. *)
      let total = List.length subjects in
      List.iteri
        (fun i req ->
          let conn = conn_arr.(i mod nconns) in
          let line =
            Json.to_string
              (Json.Obj
                 [
                   ("id", Json.Int i);
                   ("method", Json.String "submit");
                   ("params", submit_params req);
                 ])
          in
          (match send conn line with
          | () -> ()
          | exception Unix.Unix_error (e, _, _) ->
              sink.errs <-
                (Printf.sprintf "submit %d: send: %s" i
                   (Unix.error_message e))
                :: sink.errs;
              Hashtbl.replace answered i false);
          if i mod 32 = 31 then sweep ())
        subjects;
      (* Collect the stragglers: every submission must be answered. *)
      let deadline = Unix.gettimeofday () +. timeout in
      let rec collect () =
        if Hashtbl.length answered >= total then Ok ()
        else if Unix.gettimeofday () > deadline then
          Error
            (Printf.sprintf "racy: %d of %d submissions answered after %.0fs"
               (Hashtbl.length answered) total timeout)
        else
          match Unix.select (fds ()) [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> collect ()
          | [], _, _ -> collect ()
          | readable, _, _ ->
              List.iter
                (fun c ->
                  if List.mem (Chan.fd c.chan) readable then
                    List.iter process (poll_lines c))
                conns;
              collect ()
      in
      let ( let* ) = Result.bind in
      let* () = collect () in
      let accepted =
        Hashtbl.fold (fun _ ok n -> if ok then n + 1 else n) answered 0
      in
      let* status =
        finish ~timeout ~shutdown ~target:accepted sink first
      in
      Ok (report_of ~submitted:accepted ~status ~started sink)

let subjects_decided report =
  List.sort compare
    (List.map (fun (s : Ledger.slot) -> s.Ledger.subject) report.decisions)
