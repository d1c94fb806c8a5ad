(* Experiment E13: two probability companions to Figure 1.

   E13a: Pr(BFT exactness) = Pr(A_G - B_G > t) vs Pr(SCT termination) =
         Pr(A_G - B_G > 2t) per profile — quantifying the price of the
         safety guarantee (Inequality 6 vs Property 2) on the same
         electorate distributions.
   E13b: Neiger's strong-consensus bound N > mt, demonstrated empirically
         on the strong-consensus baseline: with honest inputs maximally
         dispersed over m options and N <= mt, a coalition of t nodes
         flooding a value NOBODY honest holds wins the plurality — strong
         validity itself collapses, which voting validity (a fortiori)
         rules out by stalling. *)

module Table = Vv_prelude.Table
module Profiles = Vv_dist.Profiles
module Cache = Vv_dist.Cache
module Oid = Vv_ballot.Option_id
module Campaign = Vv_exec.Campaign

let e13a_table ~t_max () =
  Table.create
    ~title:
      "E13a: the price of the safety guarantee - Pr(gap > t) vs \
       Pr(gap > 2t) per profile"
    ~headers:
      ([ "profile" ]
      @ List.concat_map
          (fun t -> [ Fmt.str "BFT t=%d" t; Fmt.str "SCT t=%d" t ])
          (List.init t_max (fun i -> i + 1)))
    ~aligns:(Table.Left :: List.init (2 * t_max) (fun _ -> Table.Right))
    ()

let e13a_row ~ng ~t_max (pr : Profiles.t) =
  let dist = Profiles.distribution ~ng pr in
  let cells =
    List.concat_map
      (fun t ->
        [
          Table.fcell (Cache.pr_voting_validity dist ~t);
          Table.fcell (Cache.pr_sct_termination dist ~t);
        ])
      (List.init t_max (fun i -> i + 1))
  in
  pr.Profiles.name :: cells

let e13_sct_price ?(ng = Profiles.default_ng) ?(t_max = 3) () =
  let tab = e13a_table ~t_max () in
  List.iter
    (fun pr -> Table.add_row tab (e13a_row ~ng ~t_max pr))
    Profiles.all;
  tab

let e13b_table ~t ~m () =
  Table.create
    ~title:
      (Fmt.str
         "E13b: Neiger's N > mt bound, empirically (m=%d options, t=f=%d, \
          coalition floods a value no honest node holds)"
         m t)
    ~headers:[ "N"; "N > mt"; "honest spread"; "strong validity"; "alien won" ]
    ~aligns:[ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right ]
    ()

let e13b_points ~t ~m =
  [ (m * t) - 1; m * t; (m * t) + 1; (m * t) + 3; (m * t) + 6 ]

let e13b_row ~t ~m n =
  let ng = n - t in
  (* Spread honest inputs as evenly as possible over options 0..m-1;
     the adversary floods option [m] (held by nobody honest). *)
  let honest = List.init ng (fun i -> i mod m) in
  let cfg =
    Vv_sim.Config.with_byzantine ~n ~t_max:t (List.init t (fun i -> ng + i)) ()
  in
  let arr = Array.of_list honest in
  let module A = Vv_sim.Adversary in
  let alien = m in
  let adversary =
    A.named "alien-flood" (fun view ->
        if view.A.round <> 0 then []
        else
          List.concat_map
            (fun src ->
              List.init view.A.n (fun dst ->
                  { A.src; dst; msg = Vv_baselines.Exchange_ba.Raw alien }))
            view.A.byzantine)
  in
  let module E = Baseline_runner.Strong_E in
  let res =
    E.run_exn cfg ~inputs:(fun id -> arr.(min id (ng - 1))) ~adversary ()
  in
  let outputs = E.honest_outputs res in
  let strong_ok =
    List.for_all (function None -> true | Some v -> List.mem v honest) outputs
  in
  let alien_won =
    List.exists (function Some v -> v = alien | None -> false) outputs
  in
  let spread =
    let counts = Array.make (m + 1) 0 in
    List.iter (fun v -> counts.(v) <- counts.(v) + 1) honest;
    String.concat "/" (List.init m (fun i -> string_of_int counts.(i)))
  in
  [
    Table.icell n;
    Table.bcell (n > m * t);
    spread;
    Table.bcell strong_ok;
    Table.bcell alien_won;
  ]

let e13_neiger ?(t = 3) ?(m = 4) () =
  let tab = e13b_table ~t ~m () in
  List.iter (fun n -> Table.add_row tab (e13b_row ~t ~m n)) (e13b_points ~t ~m);
  tab

type e13_cell = Price of Profiles.t | Neiger of int

let e13_campaign =
  let t = 3 and m = 4 in
  Campaign.v ~id:"e13"
    ~what:"Probability companions: SCT's price; Neiger's N > mt, empirically"
    ~cells:(fun _ ->
      List.map (fun pr -> Price pr) Profiles.all
      @ List.map (fun n -> Neiger n) (e13b_points ~t ~m))
    ~run_cell:(fun _ cell ->
      match cell with
      | Price pr -> e13a_row ~ng:Profiles.default_ng ~t_max:3 pr
      | Neiger n -> e13b_row ~t ~m n)
    ~collect:(fun _ pairs ->
      let rows p =
        List.filter_map (fun (c, r) -> if p c then Some r else None) pairs
      in
      let ta = e13a_table ~t_max:3 () in
      List.iter (Table.add_row ta)
        (rows (function Price _ -> true | _ -> false));
      let tb = e13b_table ~t ~m () in
      List.iter (Table.add_row tb)
        (rows (function Neiger _ -> true | _ -> false));
      Campaign.tables [ ta; tb ])
    ()
