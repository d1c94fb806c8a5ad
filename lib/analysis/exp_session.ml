(* Experiment E15: how fast do revote sessions converge? (Section V-B)

   E13a showed SCT terminates first-try with probability Pr(gap > 2t),
   which is small on dispersed electorates.  Section V-B's remedy is
   revoting with adjusted preferences; this experiment measures how many
   sessions that takes per profile and per adjustment policy. *)

module Table = Vv_prelude.Table
module Profiles = Vv_dist.Profiles
module Rng = Vv_prelude.Rng
module Session = Vv_core.Session
module Campaign = Vv_exec.Campaign

let e15 ~trials ~seed =
  let ng = Profiles.default_ng and t = 2 and max_sessions = 8 in
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E15: revote sessions to convergence (SCT, N_G=%d, t=f=%d, cap \
            %d sessions)"
           ng t max_sessions)
      ~headers:
        [ "profile"; "policy"; "success rate"; "mean sessions";
          "first-try rate" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let rng = Rng.create seed in
  List.iter
    (fun (pr : Profiles.t) ->
      let dist = Profiles.distribution ~ng pr in
      List.iter
        (fun (policy_label, policy) ->
          let decided = ref 0 and sessions = ref 0 and first = ref 0 in
          for _ = 1 to trials do
            let honest = Vv_dist.Montecarlo.sample_inputs dist rng in
            let r =
              Session.run ~policy ~max_sessions ~seed:(Rng.bits rng) ~t ~f:t
                honest
            in
            if r.Session.decided <> None then begin
              incr decided;
              sessions := !sessions + r.Session.sessions_used;
              if r.Session.sessions_used = 1 then incr first
            end
          done;
          Table.add_row tab
            [
              pr.Profiles.name;
              policy_label;
              Table.fcell ~decimals:2
                (float_of_int !decided /. float_of_int trials);
              Table.fcell ~decimals:2
                (if !decided = 0 then nan
                 else float_of_int !sessions /. float_of_int !decided);
              Table.fcell ~decimals:2
                (float_of_int !first /. float_of_int trials);
            ])
        [ ("abandon-third", Session.Abandon_third);
          ("bandwagon", Session.Bandwagon) ])
    Profiles.all;
  tab

(* The whole grid draws trial inputs and seeds from one rng shared across
   every profile and policy, so the campaign is a single cell.  Smoke tier
   shrinks the trial count. *)
let e15_campaign =
  Campaign.v ~id:"e15"
    ~what:
      "Section V-B revote sessions: convergence per profile and policy"
    ~seed:0xe15
    ~cells:(fun _ -> [ () ])
    ~run_cell:(fun ctx () ->
      let trials =
        match ctx.Campaign.profile with Campaign.Full -> 60 | Campaign.Smoke -> 15
      in
      e15 ~trials ~seed:ctx.Campaign.base_seed)
    ~collect:(fun _ pairs -> Campaign.tables (List.map snd pairs))
    ()
