(* Experiment E20: the network-agnostic validity region across synchrony
   models.

   The grid is (t_s, t_a) pairs x network model (synchronous /
   eventually-synchronous with swept GST placement / asynchronous) x an
   electorate probe, running {!Vv_bb.Na_voting} against a scripted
   adversary.  Per network the governing tolerance is t = t_s when the
   network is synchronous and t = t_a otherwise (the fallback path is
   what survives pre-GST and asynchronous scheduling), and the
   achievability prediction per cell is the 2410.19721 bound

     achievable  <=>  f <= t  /\  N > max{3t, 2t + 2*B_G + C_G}.

   Three probes per (t_s, t_a, network) triple straddle the bound:
     wide       f = t and a plurality margin comfortably inside the
                bound — must be Exact in every trial;
     over-f     f = t_s + 1 (beyond even the synchronous tolerance) —
                the adversary forges a (t_s + 1)-quorum of Fin messages,
                so decided values are garbage;
     margin     f = t but A_G < B_G + f (violating
                N > 2t + 2*B_G + C_G) — the Byzantine inputs flip the
                plurality, so runs decide the wrong option (or stall).

   The adversary script is time-based and network-agnostic: broadcast
   Inp(1) and Fin(1) at round 0, Vote(1) at delta, Comm(1) at 2*delta,
   FbVote(1) at 3*delta, from every Byzantine node.  Within tolerance it
   is impotent (every threshold the protocol uses strictly exceeds the
   Byzantine count); beyond, the round-0 Fin forgery beats the honest
   paths to the decision.

   Each run is judged by Property.judge under voting validity and
   Na_voting's own tie rule (ties to the smaller value), as in E17:
   Violation (an honest node decided something other than the honest
   plurality, or honest nodes disagree), Stall (some honest node never
   decides — admissible outside the bound), Exact.  [ok] is the
   acceptance criterion: a predicted-achievable cell must be Exact on
   every trial, and violations may only appear outside the bound.
   Byte-identical at every [--jobs] via per-index derived seeds, like
   E16–E19. *)

module Table = Vv_prelude.Table
module Executor = Vv_exec.Executor
module Campaign = Vv_exec.Campaign
module Delay = Vv_sim.Delay
module Config = Vv_sim.Config
module Adversary = Vv_sim.Adversary
module Na_voting = Vv_bb.Na_voting
module Oid = Vv_ballot.Option_id
module Property = Vv_ballot.Property
module Validity = Vv_ballot.Validity

type profile = Campaign.profile = Smoke | Full

type sched = Sync | Gst of int | Gst_adv of int | Async

let sched_label = function
  | Sync -> "sync"
  | Gst g -> Fmt.str "gst=%d" g
  | Gst_adv g -> Fmt.str "gst-adv=%d" g
  | Async -> "async"

(* The engine delay model and the protocol's timeout per network.  The
   eventually-synchronous bound is 2 so the sync path's delta covers it;
   the asynchronous fairness cap is invisible to the protocol. *)
let es_bound = 2

let async_fairness = 4

(* The adversary-supplied GST schedule: every message is held to the
   admissibility cap — pre-GST messages land at the last legal round
   (gst + bound), post-GST ones take the full eventual bound.  This is
   the worst schedule the model admits, uniformly across links, and it
   is a pure function of its arguments as Config.make demands. *)
let worst_case_schedule ~gst ~round ~src:_ ~dst:_ =
  if round < gst then max 1 (gst + es_bound - round) else es_bound

let delay_of = function
  | Sync -> Delay.synchronous
  | Gst gst -> Delay.Eventually_synchronous { gst; bound = es_bound; schedule = None }
  | Gst_adv gst ->
      Delay.Eventually_synchronous
        { gst; bound = es_bound;
          schedule = Some (fun ~round ~src ~dst -> worst_case_schedule ~gst ~round ~src ~dst) }
  | Async -> Delay.Asynchronous { fairness = async_fairness; schedule = None }

let sync_delta_of = function
  | Sync -> 1
  | Gst _ | Gst_adv _ -> es_bound
  | Async -> 1

(* Governing tolerance: the synchronous path's only when the network
   really is synchronous; the fallback's everywhere else. *)
let t_mode ~t_s ~t_a = function
  | Sync -> t_s
  | Gst _ | Gst_adv _ | Async -> t_a

type probe = Wide | Overfault | Margin

let probe_label = function
  | Wide -> "wide"
  | Overfault -> "over-f"
  | Margin -> "margin"

type cell = {
  t_s : int;
  t_a : int;
  sched : sched;
  probe : probe;
  ag : int;  (** honest votes on option 0 (the true plurality) *)
  bg : int;  (** honest votes on option 1 (the runner-up) *)
  cg : int;  (** honest votes spread over distinct further options *)
  f : int;  (** Byzantine nodes *)
}

let cell_n c = c.ag + c.bg + c.cg + c.f

(* The bound prediction for one cell. *)
let predicted c =
  let t = t_mode ~t_s:c.t_s ~t_a:c.t_a c.sched in
  let n = cell_n c in
  c.f <= t
  && Vv_core.Bounds.satisfied Vv_core.Bounds.Bft ~n ~t ~bg:c.bg ~cg:c.cg

(* Electorate construction per probe.  Every cell must satisfy the
   protocol's standing requirement n > 2*t_s + t_a, so [ag] is bumped
   until it holds. *)
let cell_of ~t_s ~t_a sched probe =
  let t = t_mode ~t_s ~t_a sched in
  let viable ~ag ~bg ~cg ~f = ag + bg + cg + f > (2 * t_s) + t_a in
  let rec bump ~ag ~bg ~cg ~f =
    if viable ~ag ~bg ~cg ~f then ag else bump ~ag:(ag + 1) ~bg ~cg ~f
  in
  match probe with
  | Wide ->
      (* f = t, margin A_G - B_G > t + t_s beyond any input skew. *)
      let bg = 1 and cg = 1 and f = t in
      let ag = bump ~ag:((2 * t) + bg + 2) ~bg ~cg ~f in
      { t_s; t_a; sched; probe; ag; bg; cg; f }
  | Overfault ->
      (* Same comfortable electorate, one fault past even t_s. *)
      let bg = 1 and cg = 1 and f = t_s + 1 in
      let ag = bump ~ag:((2 * t) + bg + 2) ~bg ~cg ~f in
      { t_s; t_a; sched; probe; ag; bg; cg; f }
  | Margin ->
      (* f = t but A_G < B_G + f: Byzantine inputs flip the plurality.
         Grown symmetrically until n > 2*t_s + t_a (preserving
         A_G = B_G + f - 1, which keeps the cell outside
         N > 2t + 2*B_G + C_G). *)
      let f = t in
      let rec find s =
        let bg = t + 1 + s in
        let ag = bg + f - 1 in
        if viable ~ag ~bg ~cg:0 ~f then (ag, bg) else find (s + 1)
      in
      let ag, bg = find 0 in
      { t_s; t_a; sched; probe; ag; bg; cg = 0; f }

type stats = {
  cell : cell;
  exact : int;
  stalls : int;
  violations : int;
  rounds_avg : float;
}

let cell_class s =
  if s.violations > 0 then Property.Violation
  else if s.stalls > 0 then Property.Stall
  else Property.Exact

(* A predicted-achievable cell must be Exact on every trial; outside the
   bound anything goes (violations are expected, stalls admissible). *)
let stats_ok s = (not (predicted s.cell)) || cell_class s = Property.Exact

let pairs = function
  | Smoke -> [ (1, 1); (2, 1) ]
  | Full -> [ (1, 1); (2, 1); (2, 2); (3, 1) ]

let scheds = function
  | Smoke -> [ Sync; Gst 3; Gst_adv 3; Async ]
  | Full -> [ Sync; Gst 0; Gst 3; Gst_adv 3; Gst 6; Async ]

let probes = [ Wide; Overfault; Margin ]

let default_trials = function Smoke -> 2 | Full -> 4

let max_rounds = 24

let grid profile =
  List.concat_map
    (fun (t_s, t_a) ->
      List.concat_map
        (fun sched -> List.map (cell_of ~t_s ~t_a sched) probes)
        (scheds profile))
    (pairs profile)

(* Honest inputs: option 0 x ag, option 1 x bg, then cg distinct
   singleton options — the plurality winner is option 0 (ties break
   low). *)
let input_of c id =
  if id < c.ag then 0
  else if id < c.ag + c.bg then 1
  else if id < c.ag + c.bg + c.cg then 2 + (id - c.ag - c.bg)
  else 0 (* Byzantine slot; never stepped *)

(* The scripted adversary: every Byzantine node broadcasts the scripted
   forgeries for the round.  Time-based, so it needs no view state; the
   round-0 Fin(1) is the (t_s + 1)-quorum forgery. *)
let adversary ~delta =
  let msgs_for round =
    if round = 0 then
      [ { Na_voting.kind = Inp; value = 1 }; { Na_voting.kind = Fin; value = 1 } ]
    else if round = delta then [ { Na_voting.kind = Vote; value = 1 } ]
    else if round = 2 * delta then [ { Na_voting.kind = Comm; value = 1 } ]
    else if round = 3 * delta then [ { Na_voting.kind = FbVote; value = 1 } ]
    else []
  in
  Adversary.named "gst-forger" (fun view ->
      List.concat_map
        (fun src ->
          List.concat_map
            (fun msg ->
              List.map
                (fun dst -> { Adversary.src; dst; msg })
                (view.Adversary.reach src))
            (msgs_for view.Adversary.round))
        view.Adversary.byzantine)

(* Na_voting breaks plurality ties toward the smaller value, so its runs
   are judged under that rule. *)
let judge_na cfg ~inputs ~t_tol outputs =
  let honest = Config.honest_ids cfg in
  let summary =
    Validity.summarize ~tie:Vv_ballot.Tie_break.Prefer_smaller
      (List.map (fun id -> Oid.of_int (inputs id)) honest)
  in
  Property.judge Property.voting summary ~t_tol
    ~outputs:(List.map (fun id -> Option.map Oid.of_int outputs.(id)) honest)

let run_trial c ~seed =
  let n = cell_n c in
  let delta = sync_delta_of c.sched in
  let module P = Na_voting.Make (struct
    let t_s = c.t_s
    let t_a = c.t_a
    let sync_delta = delta
  end) in
  let module E = Vv_sim.Engine.Make (P) in
  let byz = List.init c.f (fun i -> n - c.f + i) in
  let cfg =
    Config.with_byzantine ~delay:(delay_of c.sched) ~max_rounds ~seed ~n
      ~t_max:c.t_s byz ()
  in
  let res =
    E.run_exn cfg ~inputs:(input_of c) ~adversary:(adversary ~delta) ()
  in
  ( judge_na cfg ~inputs:(input_of c)
      ~t_tol:(t_mode ~t_s:c.t_s ~t_a:c.t_a c.sched) res.E.outputs,
    res.E.rounds_used )

(* One grid cell's statistics; every trial seed is a pure function of
   (campaign seed, cell index, trial index), so the campaign replays
   bit-for-bit at every [jobs]. *)
let cell_stats ~trials ~seed ~index cell =
  let exact = ref 0 and stalls = ref 0 and violations = ref 0 in
  let rounds = ref 0 in
  for k = 0 to trials - 1 do
    let run_seed = Executor.derive_seed ~seed ((index * trials) + k) in
    let cls, r = run_trial cell ~seed:run_seed in
    (match cls with
    | Property.Exact -> incr exact
    | Property.Stall -> incr stalls
    | Property.Violation -> incr violations);
    rounds := !rounds + r
  done;
  {
    cell;
    exact = !exact;
    stalls = !stalls;
    violations = !violations;
    rounds_avg = float_of_int !rounds /. float_of_int trials;
  }

(* --- tables --- *)

let electorate_label c = Fmt.str "%d/%d/%d" c.ag c.bg c.cg

let grid_table ~profile ~trials cells =
  let tab =
    Table.create
      ~title:
        (Fmt.str
           "E20: network-agnostic validity grid (profile=%s trials=%d; \
            es bound=%d, async fairness=%d)"
           (Campaign.profile_label profile) trials es_bound async_fairness)
      ~headers:
        [ "t_s"; "t_a"; "network"; "probe"; "A/B/C"; "f"; "n"; "t";
          "predicted"; "class"; "exact"; "stall"; "violation"; "avg rounds";
          "ok" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Left; Table.Left; Table.Left;
          Table.Right; Table.Right; Table.Right; Table.Left; Table.Left;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun s ->
      let c = s.cell in
      Table.add_row tab
        [
          Table.icell c.t_s;
          Table.icell c.t_a;
          sched_label c.sched;
          probe_label c.probe;
          electorate_label c;
          Table.icell c.f;
          Table.icell (cell_n c);
          Table.icell (t_mode ~t_s:c.t_s ~t_a:c.t_a c.sched);
          (if predicted c then "achievable" else "outside");
          Property.verdict_label (cell_class s);
          Table.icell s.exact;
          Table.icell s.stalls;
          Table.icell s.violations;
          Table.fcell ~decimals:1 s.rounds_avg;
          (if stats_ok s then "yes" else "NO");
        ])
    cells;
  tab

(* The (t_s, t_a) region summary: per tolerance pair and network, the
   observed class of each probe against the bound prediction. *)
let region_table ~profile cells =
  let tab =
    Table.create
      ~title:
        "E20: achievable region vs N > max{3t, 2t + 2*B_G + C_G} (t = t_s \
         sync, t_a otherwise)"
      ~headers:
        [ "t_s"; "t_a"; "network"; "t"; "wide (in-bound)"; "over-f"; "margin";
          "bound matched" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Left; Table.Right; Table.Left;
          Table.Left; Table.Left; Table.Left ]
      ()
  in
  List.iter
    (fun (t_s, t_a) ->
      List.iter
        (fun sched ->
          let find probe =
            List.find
              (fun s ->
                s.cell.t_s = t_s && s.cell.t_a = t_a && s.cell.sched = sched
                && s.cell.probe = probe)
              cells
          in
          let w = find Wide and o = find Overfault and m = find Margin in
          let matched = stats_ok w && stats_ok o && stats_ok m in
          Table.add_row tab
            [
              Table.icell t_s;
              Table.icell t_a;
              sched_label sched;
              Table.icell (t_mode ~t_s ~t_a sched);
              Property.verdict_label (cell_class w);
              Property.verdict_label (cell_class o);
              Property.verdict_label (cell_class m);
              (if matched then "yes" else "NO");
            ])
        (scheds profile))
    (pairs profile);
  tab

let campaign ?trials () =
  let trials_for profile =
    match trials with Some k -> k | None -> default_trials profile
  in
  Campaign.v ~id:"gst"
    ~what:
      "Network-agnostic validity: (t_s, t_a) region across sync / GST / \
       async schedulers"
    ~seed:0x657a11
    ~cells:grid
    ~run_cell:(fun ctx cell ->
      let trials = trials_for ctx.Campaign.profile in
      if trials < 1 then invalid_arg "Exp_gst.campaign: trials must be >= 1";
      cell_stats ~trials ~seed:ctx.Campaign.base_seed ~index:ctx.Campaign.index
        cell)
    ~collect:(fun profile pairs ->
      let cells = List.map snd pairs in
      {
        Campaign.tables =
          [
            grid_table ~profile ~trials:(trials_for profile) cells;
            region_table ~profile cells;
          ];
        ok = List.for_all stats_ok cells;
        verdict = None;
      })
    ()
