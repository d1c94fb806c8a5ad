(* The follower daemon behind `vvc serve --follow ADDR`: replicate a
   primary's committed log and serve it read-only.

   The loop is {!Server.run_loop}; this module is the follower's role in
   it, plus one extra channel: the upstream connection to the primary.
   On (re)connect the follower sends a single [catchup] request from its
   current height; the primary replays the missing decisions from a
   cursor and then puts the follower on its broadcast list, so the
   replay and the live stream arrive as one ordered, gapless sequence of
   decision lines.  Each is applied with
   {!Vv_multishot.Engine.append_committed} — stale indices (overlap
   after a race) are ignored, a gap means the streams got out of sync
   and forces a reconnect-and-re-catchup.

   Each upstream read is committed by the loop as on the primary: its
   slots are appended to the follower's own decision log before they are
   relayed to the follower's clients.

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
module Engine = Vv_multishot.Engine
module Log = (val Logs.src_log Server.log_src : Logs.LOG)

type outcome = Server.outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;
  catchups : int;
}

let catchup_request ~from =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.String "resync");
         ("method", Json.String "catchup");
         ("params", Json.Obj [ ("from", Json.Int from) ]);
       ])

let run ?batch ?jobs ?snapshot ?(max_outq = Server.default_max_outq)
    ?(retry_every = 0.25) ~primary ~listen cfg =
  let catchups = ref 0 in
  let follower engine =
    let upstream : Chan.t option ref = ref None in
    let next_retry = ref 0. in
    let drop_upstream why =
      match !upstream with
      | None -> ()
      | Some ch ->
          Chan.close ch;
          upstream := None;
          next_retry := Unix.gettimeofday () +. retry_every;
          Log.warn (fun m -> m "primary link down (%s); retrying" why)
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
          Chan.enqueue ch (catchup_request ~from);
          upstream := Some ch;
          Log.info (fun m ->
              m "connected to primary, catching up from %d" from)
      | exception Unix.Unix_error (_, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          next_retry := Unix.gettimeofday () +. retry_every
    in
    let link () =
      (match !upstream with
      | Some ch when Chan.alive ch -> ()
      | Some _ -> drop_upstream "closed"
      | None ->
          if Unix.gettimeofday () >= !next_retry then connect_upstream ());
      !upstream
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
    let step () =
      match !upstream with
      | None -> []
      | Some ch ->
          let applied = List.filter_map apply (Chan.read_lines ch) in
          if not (Chan.alive ch) then drop_upstream "EOF";
          applied
    in
    let status () =
      let connected =
        match !upstream with Some ch -> Chan.alive ch | None -> false
      in
      [
        ("primary_connected", Json.Bool connected);
        ("catchups", Json.Int !catchups);
      ]
    in
    {
      Server.name = "follower";
      submit =
        (fun ~id ~subject:_ _ ->
          Rpc.error ~id "follower is read-only: submit to the primary");
      (* Nothing pends locally; answer so generic drivers can proceed. *)
      flush = (fun () -> []);
      step;
      status;
      upstream = link;
      (* Wake in time to retry a lost link. *)
      timeout = Float.max 0.02 (Float.min 1.0 retry_every);
    }
  in
  let outcome =
    Server.run_loop ?batch ?jobs ?snapshot ~max_outq ~listen cfg follower
  in
  { outcome with catchups = !catchups }
