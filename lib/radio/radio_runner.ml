(* Convenience runner for the multi-hop radio voting protocol. *)

open Vv_sim
module Oid = Vv_ballot.Option_id

module E = Engine.Make (Radio_voting)

type outcome = {
  outputs : Oid.t option list;  (* honest, node-id order *)
  honest : Vv_ballot.Validity.summary;  (* under the run's tie rule *)
  termination : bool;
  agreement : bool;
  voting_validity : bool;
  stalled : bool;
  rounds : int;
  messages : int;
  trace : Trace.snapshot;  (* per-round structured history *)
}

(* Byzantine strategies over the flood message type. *)
type strategy =
  | Passive
  | Originate_second
      (** each Byzantine node floods its own ballot for the honest
          runner-up — the legitimate worst case *)
  | Poison_origin of Types.node_id * int
      (** [(victim, fake_option)]: cast own ballots for the fake option,
          then re-originate a fake copy of the victim's ballot — the relay
          attack first-accept flooding cannot stop beyond one hop ([36]).
          Strikes as soon as the first honest ballot is observed, so the
          fake overtakes true copies two or more hops out. *)

let observed_runner_up ~tie (view : Radio_voting.msg Adversary.view) =
  let ballots = Hashtbl.create 16 in
  for i = 0 to view.Adversary.sent_len - 1 do
    match view.Adversary.sent_msg i with
    | Radio_voting.Flood
        { origin; payload = Radio_voting.Ballot { subject; choice } }
      when view.Adversary.sent_src i = origin
           && not (Hashtbl.mem ballots origin) ->
        Hashtbl.add ballots origin (subject, choice)
    | Radio_voting.Flood _ -> ()
  done;
  let entries =
    Hashtbl.fold (fun o b acc -> (o, b) :: acc) ballots [] |> List.sort compare
  in
  match entries with
  | [] -> None
  | (_, (subject, _)) :: _ ->
      let tally =
        Vv_ballot.Tally.of_list (List.map (fun (_, (_, c)) -> c) entries)
      in
      (match Vv_ballot.Tally.top ~tie tally with
      | Some { Vv_ballot.Tally.a; b = Some b; _ } -> Some (subject, a, b)
      | Some { Vv_ballot.Tally.a; b = None; _ } -> Some (subject, a, a)
      | None -> None)

let adversary_of ~tie = function
  | Passive -> Adversary.passive
  | Originate_second ->
      let target = ref None in
      Adversary.broadcast_each_round ~name:"radio-originate-second"
        ~when_round:(fun _ -> true) (fun ~src view ->
          (match !target with
          | None -> target := observed_runner_up ~tie view
          | Some _ -> ());
          match !target with
          | Some (s, _, second) ->
              Some
                (Radio_voting.Flood
                   {
                     origin = src;
                     payload = Radio_voting.Ballot { subject = s; choice = second };
                   })
          | None -> None)
  | Poison_origin (victim, fake_option) ->
      (* A radio transmits one frame per round: cast the coalition's own
         ballots the round the first honest ballot is observed, then
         re-originate the fake copy of the victim's ballot.  Launched this
         early, the fake overtakes the true copy at every node two or more
         hops from the victim. *)
      let fake = Oid.of_int fake_option in
      let first_ballot = ref None in
      Adversary.named "radio-poison" (fun view ->
          (match !first_ballot with
          | None ->
              for i = 0 to view.Adversary.sent_len - 1 do
                match view.Adversary.sent_msg i with
                | Radio_voting.Flood
                    { payload = Radio_voting.Ballot { subject; _ }; _ }
                  when !first_ballot = None ->
                    first_ballot := Some (view.Adversary.round, subject)
                | Radio_voting.Flood _ -> ()
              done
          | Some _ -> ());
          match !first_ballot with
          | Some (r0, s) when view.Adversary.round = r0 ->
              List.concat_map
                (fun src ->
                  let msg =
                    Radio_voting.Flood
                      {
                        origin = src;
                        payload = Radio_voting.Ballot { subject = s; choice = fake };
                      }
                  in
                  List.map
                    (fun dst -> { Adversary.src; dst; msg })
                    (view.Adversary.reach src))
                view.Adversary.byzantine
          | Some (r0, s) when view.Adversary.round = r0 + 1 ->
              List.concat_map
                (fun src ->
                  let msg =
                    Radio_voting.Flood
                      {
                        origin = victim;
                        payload = Radio_voting.Ballot { subject = s; choice = fake };
                      }
                  in
                  List.map
                    (fun dst -> { Adversary.src; dst; msg })
                    (view.Adversary.reach src))
                view.Adversary.byzantine
          | _ -> [])

let run ?(strategy = Originate_second) ?(tie = Vv_ballot.Tie_break.default)
    ?(seed = 0x4ad10) ?(subject = 1) ?(speaker = 0) ?(max_rounds = 400)
    ?(crash = []) ~topology ~t ~byzantine inputs =
  let n = Topology.size topology in
  if List.length inputs <> n then
    invalid_arg "Radio_runner.run: inputs must match topology size";
  if not (Topology.connected topology) then
    invalid_arg "Radio_runner.run: topology must be connected";
  let faults = Array.make n Fault.Honest in
  List.iter (fun id -> faults.(id) <- Fault.Byzantine) byzantine;
  List.iter
    (fun (id, at_round, deliver_to) ->
      faults.(id) <- Fault.Crash { at_round; deliver_to })
    crash;
  let cfg =
    Config.make ~faults ~comm:Types.Local_broadcast ~max_rounds ~seed
      ~topology:(Array.init n (Topology.neighbours topology))
      ~n ~t_max:t ()
  in
  let diameter = Topology.diameter topology in
  let proto_inputs id =
    {
      Radio_voting.speaker;
      subject;
      preference = List.nth inputs id;
      diameter;
      tie;
    }
  in
  let res =
    match
      E.run cfg ~inputs:proto_inputs ~adversary:(adversary_of ~tie strategy) ()
    with
    | Ok res -> res
    | Error (`Invalid_adversary reason) ->
        raise (Engine.Invalid_adversary reason)
  in
  let honest_ids = Config.honest_ids cfg in
  let outputs = List.map (fun id -> res.E.outputs.(id)) honest_ids in
  let honest =
    Vv_ballot.Validity.summarize ~tie
      (List.map (fun id -> List.nth inputs id) honest_ids)
  in
  {
    outputs;
    honest;
    termination = Vv_ballot.Validity.termination ~outputs;
    agreement = Vv_ballot.Validity.agreement ~outputs;
    voting_validity =
      Vv_ballot.Property.(admissible voting_strict) honest ~t_tol:t ~outputs;
    stalled = res.E.stalled;
    rounds = res.E.rounds_used;
    messages = Trace.messages_total res.E.trace;
    trace = res.E.trace;
  }
