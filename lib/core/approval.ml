(* Approval voting with voting validity (extension).

   Parhami's taxonomy [16] — which the paper cites for the plurality
   scheme — also covers approval voting: each voter endorses a *set* of
   acceptable options and the option with the most endorsements wins.  The
   paper's machinery transfers: a Byzantine node can add at most t bogus
   endorsements to any single option and remove none, so the Property-2
   argument gives exactness whenever the honest endorsement gap between
   the winner and the runner-up exceeds t (delta_P = 0, quorum N - t), and
   a safety-guaranteed variant needs a gap above 2t.

   Only the ballot differs from plurality, so an approval run is a
   Voting.Make run whose ballots are the approval sets: Phase 1 broadcasts
   the subject through the plain substrate, Phase 3 proposes the local
   endorsement leader after the 2*delta wait, and Phase 4 decides on N - t
   matching proposes. *)

module Oid = Vv_ballot.Option_id
module Tally = Vv_ballot.Tally
module V = Voting.Make (Vv_bb.Plain)

type exec = {
  outputs : Oid.t option list;
  rounds : int;
  stalled : bool;
}

(* The honest-endorsement analogue of Definition III.3. *)
let honest_leader ~tie approvals =
  let tally =
    List.fold_left
      (fun acc set -> List.fold_left Tally.add acc (List.sort_uniq Oid.compare set))
      Tally.empty approvals
  in
  Tally.top ~tie tally

let approval_validity ~tie ~honest_approvals ~outputs =
  match honest_leader ~tie honest_approvals with
  | Some { Tally.a; a_count; b_count; _ } when a_count > b_count ->
      List.for_all
        (function None -> true | Some v -> Oid.equal v a)
        outputs
  | Some _ | None -> true

(* Byzantine nodes endorse the honest runner-up, and only it, in the
   first round the observed endorsements have one. *)
let collude_second ~tie =
  Vv_sim.Adversary.of_script ~quiet_trigger:true
    ~name:"approval-collude-second"
    ~trigger:(fun view ->
      match V.observed_votes view with
      | [] -> None
      | (_, (s, _)) :: _ as votes -> (
          match honest_leader ~tie (List.map (fun (_, (_, b)) -> b) votes) with
          | Some { Tally.b = Some b; _ } -> Some (s, b)
          | Some _ | None -> None))
    ~interp:(fun (s, b) () view ->
      V.broadcast_from_all view (V.Vote { subject = s; ballot = [ b ] }))
    [ () ]

let execute cfg ~speaker ~subject ~approvals ~quorum_gap
    ?(tie = Vv_ballot.Tie_break.default) ~collude () =
  let variant =
    { Variant.algo1 with judgment = Delta_custom quorum_gap; tie }
  in
  let inputs id =
    match approvals id with
    | [] -> invalid_arg "Approval: empty approval set"
    | ballot -> { V.variant; speaker; subject; ballot }
  in
  let adversary =
    if collude then collude_second ~tie else Vv_sim.Adversary.passive
  in
  let res = V.E.run_exn cfg ~inputs ~adversary () in
  {
    outputs = V.E.honest_outputs res;
    rounds = res.V.E.rounds_used;
    stalled = res.V.E.stalled;
  }
