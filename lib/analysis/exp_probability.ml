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

(* Tolerances t = 1..3 for the price table; m = 4 options and t = 3 for
   Neiger's bound. *)
let t_max = 3
let neiger_t = 3
let neiger_m = 4

let e13a_table () =
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

let e13a_row (pr : Profiles.t) =
  let dist = Profiles.distribution ~ng:Profiles.default_ng pr in
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

let e13b_table () =
  Table.create
    ~title:
      (Fmt.str
         "E13b: Neiger's N > mt bound, empirically (m=%d options, t=f=%d, \
          coalition floods a value no honest node holds)"
         neiger_m neiger_t)
    ~headers:[ "N"; "N > mt"; "honest spread"; "strong validity"; "alien won" ]
    ~aligns:[ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right ]
    ()

let e13b_points =
  let mt = neiger_m * neiger_t in
  [ mt - 1; mt; mt + 1; mt + 3; mt + 6 ]

let e13b_row n =
  let t = neiger_t and m = neiger_m in
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

let e13_campaign =
  Tabulate.campaign ~id:"e13"
    ~what:"Probability companions: SCT's price; Neiger's N > mt, empirically"
    [
      Tabulate.section ~table:e13a_table
        ~cells:(fun _ -> Profiles.all)
        ~row:(fun _ pr -> Some (e13a_row pr));
      Tabulate.section ~table:e13b_table
        ~cells:(fun _ -> e13b_points)
        ~row:(fun _ n -> Some (e13b_row n));
    ]
