(* The paper's voting protocols (Algorithms 1-4 and the CFT variant) as one
   state machine parameterised by a Phase-1 broadcast substrate and a
   {!Variant}.

   Phase 1 (Prepare)  — the speaker reliably broadcasts the subject through
                        [Sub] (Dolev-Strong / EIG / Phase-King for the BFT
                        algorithms, Plain for Algorithm 4 and CFT);
   Phase 2 (Vote)     — on outputting a valid subject every node broadcasts
                        its ballot: the options its vote endorses, one
                        under plurality, a set under approval;
   Phase 3 (Propose)  — After_wait: once t+1 votes arrive, wait 2*delta_t,
                        Sort the ballot and propose A_i if A_i - B_i >
                        delta_P (Algorithm 1 Line 10-15);
                        Incremental: propose as soon as Inequality (14)
                        fires (Algorithm 3);
   Phase 4 (Decide)   — output on a quorum of matching proposes (N - t for
                        Algorithms 1/3/4, t + 1 for the safety-guaranteed
                        Algorithm 2).

   Sub-machine rounds are batched by the known delay bound delta so the
   lock-step substrates also run under delays above one round. *)

open Vv_sim
module Oid = Vv_ballot.Option_id
module Tally = Vv_ballot.Tally

type subject = int

(* Substrate-independent execution summary, so callers can dispatch over
   differently-typed Make instances and still get one result type. *)
type exec = {
  outputs : Oid.t option list;  (** honest nodes, in node-id order *)
  decision_rounds : int option list;  (** honest nodes, in node-id order *)
  rounds : int;
  stalled : bool;
  honest_msgs : int;
  byz_msgs : int;
  trace : Trace.snapshot;  (** structured per-round history of the run *)
}

module Make (Sub : Vv_bb.Bb_intf.S) = struct
  type msg =
    | Prepare of Sub.msg
    | Vote of { subject : subject; ballot : Oid.t list }
    | Propose of { subject : subject; choice : Oid.t }

  type input = {
    variant : Variant.t;
    speaker : Types.node_id;
    subject : subject;  (** consulted at the speaker only *)
    ballot : Oid.t list;  (** the options this node's vote endorses *)
  }

  module P = struct
    type nonrec input = input
    type nonrec msg = msg
    type output = Oid.t

    type state = {
      variant : Variant.t;
      ballot : Oid.t list;
      delta : int;
      bb_rounds : int;
      mutable bb : Sub.state;
      bb_buffer : Sub.msg Vv_bb.Bb_intf.inbox;
          (* arrivals of the current delta batch, in delivery order *)
      sub_outbox : Sub.msg Outbox.t;
          (* reusable scratch the sub-machine emits into; its entries are
             transfer-wrapped into [Prepare] after every sub-call *)
      mutable subject : subject option;  (* set once; may be Bb_intf.bottom *)
      votes : (subject * Oid.t list) option array;
          (* first vote per sender, indexed by sender id *)
      proposes : (subject * Oid.t) option array;
      (* Incrementally maintained tallies of the votes/proposes matching
         [subject] (meaningful once the subject is known), with dirty
         flags — so rounds without relevant arrivals skip the propose and
         decide evaluations entirely instead of re-folding the tables.
         This is what makes stalled executions (which burn the whole
         round budget) cheap.  [voters] counts the votes behind
         [vote_tally], which counts their endorsements. *)
      mutable vote_tally : Tally.t;
      mutable voters : int;
      mutable votes_dirty : bool;
      mutable prop_tally : Tally.t;
      mutable prop_dirty : bool;
      mutable vote_deadline : int option;
      mutable propose_done : bool;
      mutable decided : Oid.t option;
    }

    let name = "voting/" ^ Sub.name

    let equal_msg a b =
      match (a, b) with
      | Prepare a, Prepare b -> Sub.equal_msg a b
      | Vote a, Vote b ->
          a.subject = b.subject && List.equal Oid.equal a.ballot b.ballot
      | Propose a, Propose b ->
          a.subject = b.subject && Oid.equal a.choice b.choice
      | (Prepare _ | Vote _ | Propose _), _ -> false

    let init (ctx : Protocol.ctx) input ~outbox =
      let delta =
        match ctx.delta with
        | Some d -> d
        | None -> invalid_arg (name ^ ": requires a known delay bound")
      in
      let value = if ctx.me = input.speaker then Some input.subject else None in
      let sub_outbox = Outbox.create () in
      let bb =
        Sub.start ~n:ctx.n ~t:ctx.t ~me:ctx.me ~sender:input.speaker ~value
          ~outbox:sub_outbox
      in
      Outbox.transfer sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
      {
        variant = input.variant;
        ballot = input.ballot;
        delta;
        bb_rounds = Sub.rounds ~n:ctx.n ~t:ctx.t;
        bb;
        bb_buffer = Vv_bb.Bb_intf.inbox_create ();
        sub_outbox;
        subject = None;
        votes = Array.make ctx.n None;
        proposes = Array.make ctx.n None;
        vote_tally = Tally.empty;
        voters = 0;
        votes_dirty = false;
        prop_tally = Tally.empty;
        prop_dirty = false;
        vote_deadline = None;
        propose_done = false;
        decided = None;
      }

    let rec listed o = function
      | [] -> false
      | o' :: rest -> Oid.equal o o' || listed o rest

    (* One endorsement for each option on a ballot.  An option a ballot
       lists twice counts once, so a voter, faulty or not, adds at most
       one endorsement to any option. *)
    let rec endorse tally = function
      | [] -> tally
      | o :: rest ->
          endorse (if listed o rest then tally else Tally.add tally o) rest

    let count_vote st ballot =
      st.vote_tally <- endorse st.vote_tally ballot;
      st.voters <- st.voters + 1;
      st.votes_dirty <- true

    let step (ctx : Protocol.ctx) st ~round ~inbox ~outbox =
      (* Ingest — an indexed loop rather than [Inbox.iter] so a quiet
         round allocates no closure. *)
      for i = 0 to Inbox.length inbox - 1 do
        let src = Inbox.src inbox i in
        match Inbox.msg inbox i with
        | Prepare b -> (
            match st.subject with
            | None -> Vv_bb.Bb_intf.inbox_push st.bb_buffer src b
            | Some _ -> ())
        | Vote { subject; ballot } ->
            if Option.is_none st.votes.(src) then begin
              st.votes.(src) <- Some (subject, ballot);
              match st.subject with
              | Some s when subject = s -> count_vote st ballot
              | Some _ | None -> ()
            end
        | Propose { subject; choice } ->
            if Option.is_none st.proposes.(src) then begin
              st.proposes.(src) <- Some (subject, choice);
              match st.subject with
              | Some s when subject = s ->
                  st.prop_tally <- Tally.add st.prop_tally choice;
                  st.prop_dirty <- true
              | Some _ | None -> ()
            end
      done;
      (* Phase 1: progress the broadcast sub-machine (batched by delta). *)
      let no_subject =
        match st.subject with None -> true | Some _ -> false
      in
      if no_subject && round mod st.delta = 0 then begin
        let lround = round / st.delta in
        if lround >= 1 && lround <= st.bb_rounds then begin
          let sub =
            Sub.step ~n:ctx.n ~t:ctx.t ~me:ctx.me st.bb ~lround
              ~inbox:st.bb_buffer ~outbox:st.sub_outbox
          in
          st.bb <- sub;
          Vv_bb.Bb_intf.inbox_clear st.bb_buffer;
          Outbox.transfer st.sub_outbox ~f:(fun m -> Prepare m) ~into:outbox;
          if lround = st.bb_rounds then begin
            let s = Sub.result sub in
            st.subject <- Some s;
            if s >= 0 then begin
              (* Seed the cached tallies from the first votes and proposes
                 per sender that arrived before the subject was known;
                 ingest maintains them from here on. *)
              for src = 0 to ctx.n - 1 do
                (match st.votes.(src) with
                | Some (subj, ballot) when subj = s -> count_vote st ballot
                | Some _ | None -> ());
                match st.proposes.(src) with
                | Some (subj, choice) when subj = s ->
                    st.prop_tally <- Tally.add st.prop_tally choice
                | Some _ | None -> ()
              done;
              st.votes_dirty <- true;
              st.prop_dirty <- true;
              (* Phase 2: a valid subject triggers the vote (Line 7-9). *)
              Outbox.broadcast outbox (Vote { subject = s; ballot = st.ballot })
            end
          end
        end
      end;
      let tolerance = ctx.t in
      (* Phase 3: propose.  Everything below depends only on the cached
         ballot and (for After_wait) the pending deadline, so the arm is
         entered only when a relevant vote arrived this round or a
         deadline is armed — a quiet stalled round does no tally work. *)
      let deadline_armed =
        match st.vote_deadline with Some _ -> true | None -> false
      in
      (match st.subject with
      | Some s
        when s >= 0
             && (not st.propose_done)
             && (match st.decided with None -> true | Some _ -> false)
             && (st.votes_dirty || deadline_armed) ->
          let tally = st.vote_tally in
          let tie = st.variant.Variant.tie in
          (match st.variant.Variant.propose with
          | Variant.After_wait ->
              if (not deadline_armed) && st.voters >= tolerance + 1 then
                st.vote_deadline <- Some (round + (2 * st.delta));
              (match st.vote_deadline with
              | Some d when round >= d -> begin
                  st.propose_done <- true;
                  let dp = Variant.delta_p st.variant ~tolerance in
                  match Tally.top ~tie tally with
                  | Some { Tally.a; a_count; b_count; _ }
                    when a_count - b_count > dp ->
                      Outbox.broadcast outbox
                        (Propose { subject = s; choice = a })
                  | Some _ | None -> ()
                end
              | Some _ | None -> ())
          | Variant.Incremental ->
              (* Inequality (14) depends only on the tally: re-evaluate
                 only when a relevant vote arrived.  C_i is the voters
                 less A_i's and B_i's endorsements (the other options'
                 endorsements when each ballot lists one option), so the
                 test reads A_i - B_i - (unheard voters) > delta_P: each
                 unheard voter can endorse B_i once, and a ballot
                 listing many options adds no more. *)
              if st.votes_dirty && st.voters >= tolerance + 1 then begin
                let dp = Variant.delta_p st.variant ~tolerance in
                match Tally.top ~tie tally with
                | Some { Tally.a; a_count; b_count; _ }
                  when Bounds.incremental_ready ~n:ctx.n ~delta_p:dp
                         ~a_i:a_count
                         ~c_i:(st.voters - a_count - b_count) ->
                    st.propose_done <- true;
                    Outbox.broadcast outbox (Propose { subject = s; choice = a })
                | Some _ | None -> ()
              end);
          st.votes_dirty <- false
      | Some _ | None -> ());
      (* Phase 4: decide on a quorum of matching proposes (Line 16-17).
         The quorum test depends only on the propose tally, so skip it on
         rounds where no relevant propose arrived. *)
      (match st.subject with
      | Some s
        when s >= 0 && st.prop_dirty
             && (match st.decided with None -> true | Some _ -> false) -> begin
          ignore s;
          st.prop_dirty <- false;
          let quorum = Variant.quorum_size st.variant ~n:ctx.n ~tolerance in
          match Tally.ranked ~tie:st.variant.Variant.tie st.prop_tally with
          | (choice, c) :: _ when c >= quorum -> st.decided <- Some choice
          | _ -> ()
        end
      | Some _ | None -> ());
      st

    let output st = st.decided

    (* A state later steps on either copy cannot affect in the other.  The
       sub-machine and the Phase-1 scratch are written only while the
       subject is unknown, so a node past Phase 1 shares them. *)
    let copy st =
      let st =
        {
          st with
          votes = Array.copy st.votes;
          proposes = Array.copy st.proposes;
        }
      in
      match st.subject with
      | Some _ -> st
      | None ->
          {
            st with
            bb = Sub.copy st.bb;
            bb_buffer = Vv_bb.Bb_intf.inbox_copy st.bb_buffer;
            sub_outbox = Outbox.create ();
          }

    (* Inert states, for the engine's stalled-run fast-forward: [step] on
       an empty inbox is a permanent no-op exactly when the sub-machine
       has delivered a subject (Phase 1 never re-enters), no propose
       deadline is pending, and no unconsumed tally dirt remains — then
       Phases 3 and 4 are gated off at every future round.  A decided
       node trivially qualifies, as does one whose subject is invalid
       (s < 0 disables Phases 2-4 outright). *)
    let inert st =
      match st.decided with
      | Some _ -> true
      | None -> (
          match st.subject with
          | None -> false
          | Some s ->
              s < 0
              || ((not st.prop_dirty)
                 && (st.propose_done
                    || ((not st.votes_dirty)
                       &&
                       match st.vote_deadline with
                       | None -> true
                       | Some _ -> false))))

    (* The Section IV phase the node is in, for trace events. *)
    let phase st =
      match st.decided with
      | Some _ -> "decided"
      | None -> (
          if st.propose_done then "proposed"
          else
            match st.subject with
            | None -> "prepare"
            | Some s when s < 0 -> "no-subject"
            | Some _ -> "vote")
  end

  module E = Engine.Make (P)

  (* --- Adversary strategies over this message type --- *)

  (* First vote per honest sender observed in the current round's traffic
     (a broadcast appears once per recipient; deduplicate by source).  The
     scan reads the indexed view directly, so rounds whose traffic carries
     no votes — the whole Phase-1 storm — allocate nothing here. *)
  let observed_votes (view : msg Adversary.view) =
    let len = view.Adversary.sent_len in
    let seen = ref None in
    for i = 0 to len - 1 do
      match view.Adversary.sent_msg i with
      | Vote { subject; ballot } ->
          let tbl =
            match !seen with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 16 in
                seen := Some tbl;
                tbl
          in
          let src = view.Adversary.sent_src i in
          if not (Hashtbl.mem tbl src) then
            Hashtbl.add tbl src (subject, ballot)
      | Prepare _ | Propose _ -> ()
    done;
    match !seen with
    | None -> []
    | Some tbl ->
        Hashtbl.fold (fun src sv acc -> (src, sv) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  (* A vote that endorses option [o] alone. *)
  let vote s o = Vote { subject = s; ballot = [ o ] }

  let broadcast_from_all (view : msg Adversary.view) m =
    List.concat_map
      (fun src ->
        List.init view.Adversary.n (fun dst -> { Adversary.src; dst; msg = m }))
      view.Adversary.byzantine

  (* The endorsements of the observed votes on subject [s], in option
     order, one entry per endorsement. *)
  let endorsed s votes =
    List.concat_map (fun (_, (subj, ballot)) -> if subj = s then ballot else [])
      votes

  (* Rank the observed honest ballots and return (subject, winner,
     runner-up); the runner-up defaults to the winner when unique. *)
  let observed_top2 ~tie votes =
    match votes with
    | [] -> None
    | (_, (s, _)) :: _ -> (
        match Tally.top ~tie (Tally.of_list (endorsed s votes)) with
        | Some { Tally.a; b; _ } -> Some (s, a, Option.value b ~default:a)
        | None -> None)

  (* The scripted adversary's trigger: the first round honest votes
     appear.  It captures the subject and the live option set (distinct
     honest endorsements in option order) so every script index has a
     fixed meaning. *)
  let script_trigger view =
    match observed_votes view with
    | [] -> None
    | ((_, (s, _)) :: _) as votes ->
        let domain = List.sort_uniq Oid.compare (endorsed s votes) in
        if domain = [] then None else Some (s, Array.of_list domain)

  (* Clamp: scripts are enumerated for up to d options but must stay
     meaningful when fewer are live. *)
  let live domain i = domain.(Int.min (Int.max i 0) (Array.length domain - 1))

  (* Broadcast along [view.reach] (not all of [n]) so plans stay legal
     under local broadcast and on sparse topologies. *)
  let reach_broadcast view m =
    List.concat_map
      (fun src ->
        List.map
          (fun dst -> { Adversary.src; dst; msg = m })
          (view.Adversary.reach src))
      view.Adversary.byzantine

  let script_interp (s, domain) action view =
    match action with
    | Strategy.Skip -> []
    | Strategy.Vote_all i -> reach_broadcast view (vote s (live domain i))
    | Strategy.Vote_split (i, j) ->
        List.concat_map
          (fun src ->
            List.map
              (fun dst ->
                let o = live domain (if dst mod 2 = 0 then i else j) in
                { Adversary.src; dst; msg = vote s o })
              (view.Adversary.reach src))
          view.Adversary.byzantine
    | Strategy.Propose_all i ->
        reach_broadcast view (Propose { subject = s; choice = live domain i })
    | Strategy.Vote_and_propose (i, j) ->
        reach_broadcast view (vote s (live domain i))
        @ reach_broadcast view (Propose { subject = s; choice = live domain j })

  let scripted actions =
    Adversary.of_script ~quiet_trigger:true
      ~name:(Strategy.script_label actions)
      ~trigger:script_trigger ~interp:script_interp actions

  (* A named strategy is a one-action script: it captures the honest
     votes of the first round they appear, stays silent [wait] rounds,
     then plays [act] on them. *)
  let one_action ?(wait = 0) name act =
    Adversary.of_script ~quiet_trigger:true ~name
      ~trigger:(fun view ->
        match observed_votes view with [] -> None | votes -> Some votes)
      ~interp:(fun votes play view -> if play then act votes view else [])
      (List.init (Int.max wait 0) (fun _ -> false) @ [ true ])

  (* Every Byzantine node votes the honest runner-up. *)
  let collude ~tie ?wait name =
    one_action ?wait name (fun votes view ->
        match observed_top2 ~tie votes with
        | Some (s, _, second) -> broadcast_from_all view (vote s second)
        | None -> [])

  let adversary_of ?(tie = Vv_ballot.Tie_break.default) (spec : Strategy.t) :
      msg Adversary.t =
    match spec with
    | Strategy.Passive -> Adversary.passive
    | Strategy.Collude_second -> collude ~tie "collude-second"
    | Strategy.Late_collude wait -> collude ~tie ~wait "late-collude"
    | Strategy.Collude_fixed target ->
        one_action "collude-fixed" (fun votes view ->
            match votes with
            | (_, (s, _)) :: _ ->
                broadcast_from_all view (vote s (Oid.of_int target))
            | [] -> [])
    | Strategy.Split_top2 ->
        one_action "split-top2" (fun votes view ->
            match observed_top2 ~tie votes with
            | Some (s, first, second) ->
                List.concat_map
                  (fun src ->
                    List.init view.Adversary.n (fun dst ->
                        let o = if dst mod 2 = 0 then first else second in
                        { Adversary.src; dst; msg = vote s o }))
                  view.Adversary.byzantine
            | None -> [])
    | Strategy.Propose_second ->
        one_action "propose-second" (fun votes view ->
            match observed_top2 ~tie votes with
            | Some (s, _, second) ->
                broadcast_from_all view (vote s second)
                @ broadcast_from_all view
                    (Propose { subject = s; choice = second })
            | None -> [])
    | Strategy.Random_votes seed ->
        let rng = Vv_prelude.Rng.create seed in
        one_action "random-votes" (fun votes view ->
            match votes with
            | (_, (s, _)) :: _ ->
                let domain =
                  List.sort_uniq Oid.compare
                    (List.concat_map (fun (_, (_, ballot)) -> ballot) votes)
                in
                List.concat_map
                  (fun src ->
                    let o = Vv_prelude.Rng.choose rng domain in
                    List.init view.Adversary.n (fun dst ->
                        { Adversary.src; dst; msg = vote s o }))
                  view.Adversary.byzantine
            | [] -> [])
    | Strategy.Scripted actions -> scripted actions

  (* One engine result, summarised substrate-independently. *)
  let exec_of cfg (res : E.result) =
    let honest = Config.honest_ids cfg in
    {
      outputs = List.map (fun id -> res.E.outputs.(id)) honest;
      decision_rounds = List.map (fun id -> res.E.decision_round.(id)) honest;
      rounds = res.E.rounds_used;
      stalled = res.E.stalled;
      honest_msgs = res.E.trace.Trace.honest_msgs;
      byz_msgs = res.E.trace.Trace.byz_msgs;
      trace = res.E.trace;
    }

  let inputs_of ~variant ~speaker ~subject ~preferences id =
    { variant; speaker; subject; ballot = [ preferences id ] }

  let execute_checked cfg ~variant ~speaker ~subject ~preferences ~strategy =
    let adversary = adversary_of ~tie:variant.Variant.tie strategy in
    Result.map (exec_of cfg)
      (E.run cfg
         ~inputs:(inputs_of ~variant ~speaker ~subject ~preferences)
         ~adversary ())

  (* Every scripted adversary stays silent and quiescent until its
     trigger fires, so all scripts against one configuration run the same
     execution through the honest steps of the trigger round, and all
     scripts that share their first j actions run the same execution
     through the honest steps of the j-th round after it.  The returned
     function keeps one checkpoint per depth along the last script's
     path.  Level 0 runs once, against a stand-in script whose trigger
     never fires, and pauses on the scripts' own trigger; level j resumes
     level j - 1 against action j and pauses after the next round's
     honest steps.  A script a1 ... ak resumes the deepest level whose
     actions match its own, builds each missing level once, and runs only
     ak and the rest of the run.

     A level's adversary starts triggered, with the context the level-0
     pause captured, and plays its action followed by a [Skip] that never
     runs: while actions remain the real script is not quiescent, and the
     placeholder keeps the level's adversary from claiming otherwise to
     the engine's fast-forward.  A level whose run ends, or whose action
     the engine rejects, is the result of every script below it, with the
     trace renamed to the script.  Not for sharing between domains: the
     path is unsynchronised. *)
  let execute_scripted cfg ~variant ~speaker ~subject ~preferences =
    let stand_in =
      Adversary.of_script ~quiet_trigger:true ~name:"scripted-prefix"
        ~trigger:(fun _ -> None)
        ~interp:(fun () () _ -> [])
        []
    in
    let trigger = ref None in
    let level0 =
      E.run_prefix cfg
        ~inputs:(inputs_of ~variant ~speaker ~subject ~preferences)
        ~copy:P.copy ~adversary:stand_in
        ~pause:(fun view ->
          trigger := script_trigger view;
          Option.is_some !trigger)
        ()
    in
    let triggered ~name actions =
      let ctx = !trigger in
      Adversary.of_script ~name ~trigger:(fun _ -> ctx) ~interp:script_interp
        actions
    in
    let descend cp action =
      E.resume cp
        ~adversary:
          (triggered ~name:"scripted-prefix" [ action; Strategy.Skip ])
        ~pause:(fun _ -> true)
        ()
    in
    (* [go ~label level stored actions]: [actions] are what the script
       [label] names still plays from [level]; [stored] holds the levels
       below [level] along the last path.  Returns the script's result
       and the levels below [level] along its own path. *)
    let rec go ~label level stored actions =
      match (level, actions) with
      | Error err, _ -> (Error err, [])
      | Ok (E.Finished res), _ ->
          let exec = exec_of cfg res in
          let trace = { exec.trace with Trace.adversary = label } in
          (Ok { exec with trace }, [])
      | Ok (E.Paused cp), ([] | [ _ ]) -> (
          match E.resume cp ~adversary:(triggered ~name:label actions) () with
          | Ok (E.Finished res) -> (Ok (exec_of cfg res), [])
          | Ok (E.Paused _) -> assert false (* resumed without a pause *)
          | Error err -> (Error err, []))
      | Ok (E.Paused cp), action :: rest ->
          let next, stored =
            match stored with
            | (a, next) :: deeper when Strategy.equal_action a action ->
                (next, deeper)
            | _ -> (descend cp action, [])
          in
          let res, kept = go ~label next stored rest in
          (res, (action, next) :: kept)
    in
    let path = ref [] in
    fun actions ->
      let res, kept =
        go ~label:(Strategy.script_label actions) level0 !path actions
      in
      path := kept;
      res
end
