(* The checker's sequential tail: fold the index-addressed classes of an
   enumerated sweep into per-group counts, violations and tightness
   witnesses, and shrink what gets reported.  The sweep itself fans out
   through [Campaign.run] (see {!Report.campaign}).

   Determinism contract: the execution array's order is fixed by the
   enumeration (Space/Script), the classes arrive index-addressed at
   every [--jobs], and everything here — aggregation, witness selection
   (first index wins), shrinking (greedy over a deterministic move list
   against a deterministic engine) — is sequential.  The checker's output
   is therefore byte-identical at any parallelism, which the test suite
   and CI pin. *)

module Runner = Vv_core.Runner
module Bounds = Vv_core.Bounds

type profile = Vv_exec.Campaign.profile = Smoke | Full

let dims_of = function Smoke -> Space.smoke | Full -> Space.full

let profile_label = Vv_exec.Campaign.profile_label

type counterexample = {
  original : Space.execution;
  shrunk : Shrink.result;
  class_ : Oracle.class_;
  outcome : Runner.outcome option;
      (** re-run of the shrunk execution, for trace reporting; [None] only
          if the engine rejected the adversary (itself a violation) *)
}

type group_stats = {
  protocol : Runner.protocol;
  substrate : string;
  cells : int;
  runs : int;
  exact : int;
  stall_admissible : int;
  defeated : int;
  violations : int;
}

type tightness = {
  kind : Bounds.kind;
  below_bound_cells : int;
  witnessed_cells : int;  (** below-bound cells with >= 1 witnessing run *)
  below_bound_runs : int;
  witness : counterexample option;  (** first witness, shrunk *)
}

type result = {
  profile : profile;
  total_cells : int;
  total_runs : int;
  groups : group_stats list;
  violations : counterexample list;  (** shrunk; at most [max_reported] *)
  violations_total : int;
  tightness : tightness list;  (** one row per bound kind *)
  ok : bool;
      (** no violations anywhere, and every bound kind has a below-bound
          tightness witness *)
}

let counterexample_of ?max_trials ?property exec class_ =
  let shrunk = Shrink.shrink ?max_trials ?property exec class_ in
  let outcome =
    Result.to_option (Runner.run_checked (Space.spec_of shrunk.Shrink.execution))
  in
  { original = exec; shrunk; class_; outcome }

let kinds = [ Bounds.Bft; Bounds.Cft; Bounds.Sct ]

(* How many violations [aggregate] shrinks and carries. *)
let max_reported = 10

(* The sequential tail of a check run: everything after the parallel
   classification fan-out, which the campaign wrapper in {!Report} runs
   through [Campaign.run]. *)
let aggregate ?max_shrink_trials ?(property = Vv_ballot.Property.voting)
    profile ~execs ~classes =
  let dims = dims_of profile in
  let count = Array.length execs in
  (* Per (protocol, substrate) aggregation, in first-seen (= enumeration)
     order. *)
  let groups : (string, group_stats ref) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  let group_of (cell : Space.cell) =
    let substrate = Space.substrate_label cell in
    let key = Runner.protocol_label cell.Space.protocol ^ "/" ^ substrate in
    match Hashtbl.find_opt groups key with
    | Some g -> g
    | None ->
        let g =
          ref
            {
              protocol = cell.Space.protocol;
              substrate;
              cells = 0;
              runs = 0;
              exact = 0;
              stall_admissible = 0;
              defeated = 0;
              violations = 0;
            }
        in
        Hashtbl.add groups key g;
        group_order := key :: !group_order;
        g
  in
  List.iter
    (fun cell ->
      let g = group_of cell in
      g := { !g with cells = !g.cells + 1 })
    (Space.cells dims);
  let violation_idx = ref [] in
  let witness_idx : (Bounds.kind * int) list ref = ref [] in
  let witnessed_cells : (Bounds.kind, Space.cell list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let below_runs : (Bounds.kind, int ref) Hashtbl.t = Hashtbl.create 8 in
  let tally tbl kind zero =
    match Hashtbl.find_opt tbl kind with
    | Some r -> r
    | None ->
        let r = ref zero in
        Hashtbl.add tbl kind r;
        r
  in
  (* A cell's executions are consecutive in the sweep, so its group and
     its witnessed-cell membership are looked up once per run of them;
     in any other order a lookup is repeated, never wrong. *)
  let last = ref None in
  let facts_of cell =
    match !last with
    | Some ((c, _, _) as facts) when c == cell -> facts
    | Some _ | None ->
        let facts = (cell, group_of cell, ref false) in
        last := Some facts;
        facts
  in
  Array.iteri
    (fun i class_ ->
      let exec = execs.(i) in
      let cell, g, witnessed = facts_of exec.Space.cell in
      let bump field =
        g :=
          (match field with
          | `Exact -> { !g with exact = !g.exact + 1 }
          | `Stall -> { !g with stall_admissible = !g.stall_admissible + 1 }
          | `Defeated -> { !g with defeated = !g.defeated + 1 }
          | `Violation -> { !g with violations = !g.violations + 1 })
      in
      g := { !g with runs = !g.runs + 1 };
      (match class_ with
      | Oracle.Exact -> bump `Exact
      | Oracle.Admissible_stall -> bump `Stall
      | Oracle.Defeated -> bump `Defeated
      | Oracle.Violation _ ->
          bump `Violation;
          violation_idx := i :: !violation_idx);
      let kind = Oracle.kind_of cell.Space.protocol in
      if not (Oracle.bound_holds cell) then
        incr (tally below_runs kind 0);
      if Oracle.witnesses_tightness exec class_ then begin
        if not (List.mem_assoc kind !witness_idx) then
          witness_idx := !witness_idx @ [ (kind, i) ];
        if not !witnessed then begin
          let cells = tally witnessed_cells kind [] in
          if not (List.mem cell !cells) then cells := cell :: !cells;
          witnessed := true
        end
      end)
    classes;
  let violation_idx = List.rev !violation_idx in
  let violations_total = List.length violation_idx in
  let violations =
    List.filteri (fun i _ -> i < max_reported) violation_idx
    |> List.map (fun i ->
           counterexample_of ?max_trials:max_shrink_trials ~property execs.(i)
             classes.(i))
  in
  let below_cells kind =
    List.length
      (List.filter
         (fun (c : Space.cell) ->
           Oracle.kind_of c.Space.protocol = kind && not (Oracle.bound_holds c))
         (Space.cells dims))
  in
  let tightness =
    List.map
      (fun kind ->
        let witness =
          Option.map
            (fun i ->
              counterexample_of ?max_trials:max_shrink_trials ~property
                execs.(i) classes.(i))
            (List.assoc_opt kind !witness_idx)
        in
        {
          kind;
          below_bound_cells = below_cells kind;
          witnessed_cells =
            (match Hashtbl.find_opt witnessed_cells kind with
            | Some l -> List.length !l
            | None -> 0);
          below_bound_runs =
            (match Hashtbl.find_opt below_runs kind with
            | Some r -> !r
            | None -> 0);
          witness;
        })
      kinds
  in
  let groups =
    List.rev_map (fun key -> !(Hashtbl.find groups key)) !group_order
  in
  (* Tightness is a statement about the *voting* bounds; when sweeping a
     different property only freedom from violations is demanded. *)
  let ok =
    violations_total = 0
    && ((not (Vv_ballot.Property.equal property Vv_ballot.Property.voting))
       || List.for_all (fun t -> Option.is_some t.witness) tightness)
  in
  {
    profile;
    total_cells = List.length (Space.cells dims);
    total_runs = count;
    groups;
    violations;
    violations_total;
    tightness;
    ok;
  }
