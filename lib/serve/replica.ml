(* The follower daemon behind `vvc serve --follow ADDR`: replicate a
   primary's committed log and serve it read-only.

   The loop is the same select shape as {!Server}, with one extra
   channel: the upstream connection to the primary.  On (re)connect the
   follower sends a single [catchup] request from its current height;
   the primary replies with the missing decisions and then keeps the
   follower on its broadcast list, so the replay and the live stream
   arrive as one ordered, gapless sequence of decision lines.  Each is
   applied with {!Vv_multishot.Engine.append_committed} — stale indices
   (overlap after a race) are ignored, a gap means the streams got out
   of sync and forces a reconnect-and-re-catchup.

   Each upstream read is appended to the follower's own decision log
   ({!Server.write_snapshot}) before its decisions are relayed to the
   follower's clients, as on the primary.

   When the primary dies the follower keeps serving reads at its last
   height and probes the primary address every [retry_every] seconds; a
   primary restarted from its snapshot answers the next [catchup] from
   whatever height the follower reached, so the follower's log converges
   to the primary's byte-for-byte (campaign E19 pins this).

   Client-facing surface: [status] (with follower role fields),
   [catchup] and [shutdown] behave as on the primary; [flush] is a no-op
   (nothing pends locally); [submit] is refused — followers are
   read-only by construction, there is no write forwarding. *)

module Json = Vv_prelude.Json
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

type outcome = { height : int; served_clients : int; catchups : int }

let catchup_request ~from =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.String "resync");
         ("method", Json.String "catchup");
         ("params", Json.Obj [ ("from", Json.Int from) ]);
       ])

let run ?batch ?jobs ?snapshot ?log ?(max_outq = Server.default_max_outq)
    ?(retry_every = 0.25) ~primary ~listen cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let engine =
    match Server.load_engine ?batch ?jobs ~snapshot cfg with
    | Ok e -> e
    | Error msg -> failwith ("Replica.run: cannot load snapshot: " ^ msg)
  in
  let info msg = match log with Some f -> f msg | None -> () in
  info
    (Printf.sprintf "following: n=%d t=%d batch=%d height=%d"
       cfg.Ledger.n cfg.Ledger.t (Engine.batch engine) (Engine.height engine));
  let clients : (Unix.file_descr, Chan.t) Hashtbl.t = Hashtbl.create 64 in
  let served = ref 0 in
  let catchups = ref 0 in
  let upstream : Chan.t option ref = ref None in
  let next_retry = ref 0. in
  let running = ref true in
  let send ch line =
    match Chan.enqueue ch ~max_outq line with
    | `Ok -> ()
    | `Overflow -> info "disconnecting slow consumer"
  in
  let broadcast line = Hashtbl.iter (fun _ ch -> send ch line) clients in
  let drop_upstream why =
    match !upstream with
    | None -> ()
    | Some ch ->
        Chan.close ch;
        upstream := None;
        next_retry := Unix.gettimeofday () +. retry_every;
        info (Printf.sprintf "primary link down (%s); retrying" why)
  in
  let connect_upstream () =
    let fd =
      Unix.socket
        (match primary with
        | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
        | Unix.ADDR_INET _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd primary with
    | () ->
        let ch = Chan.of_fd fd in
        incr catchups;
        let from = Engine.height engine in
        ignore (Chan.enqueue ch ~max_outq (catchup_request ~from));
        upstream := Some ch;
        info (Printf.sprintf "connected to primary, catching up from %d" from)
    | exception Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        next_retry := Unix.gettimeofday () +. retry_every
  in
  (* Apply one upstream line; [Some s] when [s] extended the committed
     log. *)
  let apply line =
    match Rpc.decision_of_line line with
    | None -> None (* the catchup ack, or noise — not a decision *)
    | Some s -> (
        match Engine.append_committed engine s with
        | Ok `Applied -> Some s
        | Ok `Stale -> None
        | Error msg ->
            drop_upstream msg;
            None)
  in
  let close_all () =
    (match !upstream with Some ch -> Chan.close ch | None -> ());
    Hashtbl.iter
      (fun _ ch ->
        Chan.flush_write ch;
        Chan.close ch)
      clients
  in
  (* Apply an upstream read, log what it extended, then relay it: write
     before broadcast, as on the primary, and before any client request
     of the same burst can [catchup] the new slots.  A failed write stops
     the follower there, before it relays or serves them. *)
  let apply_burst lines =
    match List.filter_map apply lines with
    | [] -> ()
    | applied ->
        (match Server.write_log engine snapshot with
        | Ok () -> ()
        | Error msg ->
            close_all ();
            let msg = "decision log write failed, stopping: " ^ msg in
            info msg;
            failwith ("Replica.run: " ^ msg));
        List.iter
          (fun s -> broadcast (Rpc.decision ~batch:(Engine.batch engine) s))
          applied
  in
  let handle ch line =
    if String.trim line <> "" then
      match Rpc.parse line with
      | Error msg -> send ch (Rpc.error ~id:Json.Null msg)
      | Ok (Rpc.Submit { id; _ }) ->
          send ch
            (Rpc.error ~id "follower is read-only: submit to the primary")
      | Ok (Rpc.Flush { id }) ->
          (* Nothing pends locally; answer so generic drivers can proceed. *)
          send ch (Rpc.result ~id (Json.Obj [ ("flushed", Json.Int 0) ]))
      | Ok (Rpc.Status { id }) ->
          let connected =
            match !upstream with Some ch -> Chan.alive ch | None -> false
          in
          send ch
            (Rpc.result ~id
               (Rpc.status_json
                  ~extra:
                    [
                      ("role", Json.String "follower");
                      ("primary_connected", Json.Bool connected);
                      ("catchups", Json.Int !catchups);
                    ]
                  engine))
      | Ok (Rpc.Catchup { id; from }) ->
          let replay = Engine.decisions_from engine from in
          send ch
            (Rpc.result ~id
               (Json.Obj [ ("replaying", Json.Int (List.length replay)) ]));
          List.iter
            (fun s -> send ch (Rpc.decision ~batch:(Engine.batch engine) s))
            replay
      | Ok (Rpc.Shutdown { id }) ->
          send ch
            (Rpc.result ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
          running := false
  in
  let accept () =
    match Unix.accept listen with
    | cfd, _ ->
        incr served;
        Hashtbl.replace clients cfd (Chan.of_fd cfd)
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
           _, _) ->
        ()
  in
  while !running do
    (match !upstream with
    | Some ch when Chan.alive ch -> ()
    | Some _ -> drop_upstream "closed"
    | None ->
        if Unix.gettimeofday () >= !next_retry then connect_upstream ());
    let up = !upstream in
    let rfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.alive ch then fd :: acc else acc)
        clients
        (match up with
        | Some ch when Chan.alive ch -> [ listen; Chan.fd ch ]
        | _ -> [ listen ])
    in
    let wfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.want_write ch then fd :: acc else acc)
        clients
        (match up with
        | Some ch when Chan.want_write ch -> [ Chan.fd ch ]
        | _ -> [])
    in
    let timeout =
      if up = None then Float.max 0.02 (Float.min 1.0 retry_every) else 1.0
    in
    match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match up with
            | Some ch when Chan.fd ch = fd -> Chan.flush_write ch
            | _ -> (
                match Hashtbl.find_opt clients fd with
                | Some ch -> Chan.flush_write ch
                | None -> ()))
          writable;
        List.iter
          (fun fd ->
            if fd = listen then accept ()
            else
              match up with
              | Some ch when Chan.fd ch = fd ->
                  apply_burst (Chan.read_lines ch);
                  if not (Chan.alive ch) then drop_upstream "EOF"
              | _ -> (
                  match Hashtbl.find_opt clients fd with
                  | None -> ()
                  | Some ch -> List.iter (handle ch) (Chan.read_lines ch)))
          readable;
        let dead =
          Hashtbl.fold
            (fun fd ch acc -> if Chan.alive ch then acc else (fd, ch) :: acc)
            clients []
        in
        List.iter
          (fun (fd, ch) ->
            Chan.close ch;
            Hashtbl.remove clients fd)
          dead
  done;
  Server.write_snapshot ?log engine snapshot;
  close_all ();
  info (Printf.sprintf "follower stopped at height %d" (Engine.height engine));
  {
    height = Engine.height engine;
    served_clients = !served;
    catchups = !catchups;
  }
