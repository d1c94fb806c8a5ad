(* Render a checker result through the repo's standard output layer
   (Table -> table/csv/json via Emit), so `vvc check` speaks the same
   formats as every experiment subcommand.

   Three tables: the per-(protocol, substrate) summary, the per-kind
   tightness ledger, and one row per reported counterexample — cell,
   script, class, the shrunk execution's honest outputs and its trace
   (rounds used, message counts, stall flag, decision rounds), which is
   the compact face of the Trace.snapshot the engine recorded. *)

module Table = Vv_prelude.Table
module Runner = Vv_core.Runner
module Bounds = Vv_core.Bounds

let summary_table ?validity (r : Check.result) =
  let t =
    Table.create
      ~title:
        (Fmt.str "vv_check %s: %d cells, %d runs%s"
           (Check.profile_label r.Check.profile)
           r.Check.total_cells r.Check.total_runs
           (match validity with
           | None -> ""
           | Some id -> " [validity=" ^ id ^ "]"))
      ~headers:
        [
          "protocol"; "substrate"; "cells"; "runs"; "exact"; "stall-ok";
          "defeated"; "violations";
        ]
      ~aligns:
        [
          Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right;
        ]
      ()
  in
  List.iter
    (fun (g : Check.group_stats) ->
      Table.add_row t
        [
          Runner.protocol_label g.Check.protocol;
          g.Check.substrate;
          Table.icell g.Check.cells;
          Table.icell g.Check.runs;
          Table.icell g.Check.exact;
          Table.icell g.Check.stall_admissible;
          Table.icell g.Check.defeated;
          Table.icell g.Check.violations;
        ])
    r.Check.groups;
  t

let witness_cell = function
  | None -> "MISSING"
  | Some (c : Check.counterexample) ->
      Fmt.str "%a" Space.pp_execution c.Check.shrunk.Shrink.execution

let tightness_table (r : Check.result) =
  let t =
    Table.create ~title:"tightness: below-bound configs must be defeatable"
      ~headers:
        [
          "kind"; "below-bound cells"; "witnessed cells"; "below-bound runs";
          "witness (shrunk)";
        ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun (tr : Check.tightness) ->
      Table.add_row t
        [
          Fmt.str "%a" Bounds.pp_kind tr.Check.kind;
          Table.icell tr.Check.below_bound_cells;
          Table.icell tr.Check.witnessed_cells;
          Table.icell tr.Check.below_bound_runs;
          witness_cell tr.Check.witness;
        ])
    r.Check.tightness;
  t

let outputs_cell (o : Runner.outcome option) =
  match o with
  | None -> "engine rejected adversary"
  | Some o ->
      Fmt.str "%a"
        Fmt.(
          list ~sep:(any ",")
            (option ~none:(any "·") Vv_ballot.Option_id.pp))
        o.Runner.outputs

let trace_cell (o : Runner.outcome option) =
  match o with
  | None -> "-"
  | Some o ->
      Fmt.str "%d rounds, %d+%d msgs%s; decided %a" o.Runner.rounds
        o.Runner.honest_msgs o.Runner.byz_msgs
        (if o.Runner.stalled then ", STALLED" else "")
        Fmt.(list ~sep:(any ",") (option ~none:(any "·") int))
        o.Runner.decision_rounds

let violations_table (r : Check.result) =
  let t =
    Table.create
      ~title:
        (Fmt.str "violations: %d reported of %d found"
           (List.length r.Check.violations)
           r.Check.violations_total)
      ~headers:
        [ "#"; "counterexample (shrunk)"; "violated"; "outputs"; "trace"; "shrink" ]
      ~aligns:
        [
          Table.Right; Table.Left; Table.Left; Table.Left; Table.Left;
          Table.Left;
        ]
      ()
  in
  List.iteri
    (fun i (c : Check.counterexample) ->
      Table.add_row t
        [
          Table.icell i;
          Fmt.str "%a" Space.pp_execution c.Check.shrunk.Shrink.execution;
          Oracle.class_label c.Check.class_;
          outputs_cell c.Check.outcome;
          trace_cell c.Check.outcome;
          Fmt.str "%d trials%s" c.Check.shrunk.Shrink.trials
            (if c.Check.shrunk.Shrink.minimal then "" else " (budget hit)");
        ])
    r.Check.violations;
  t

let tables r =
  summary_table r :: tightness_table r
  ::
  (if r.Check.violations = [] then [] else [ violations_table r ])

let verdict_line (r : Check.result) =
  if r.Check.ok then
    Fmt.str "OK: %d runs exact where promised; every bound kind witnessed tight"
      r.Check.total_runs
  else if r.Check.violations_total > 0 then
    Fmt.str "FAIL: %d violation(s) of promised guarantees"
      r.Check.violations_total
  else "FAIL: some bound kind has no tightness witness"

module Property = Vv_ballot.Property

(* One property's slice of a multi-validity sweep: the labeled summary,
   the tightness ledger only where it means something (the voting
   bounds), and any violations. *)
let property_tables (p, (r : Check.result)) =
  (summary_table ~validity:p.Property.id r
  ::
  (if Property.equal p Property.voting then [ tightness_table r ] else []))
  @ (if r.Check.violations = [] then [] else [ violations_table r ])

let sweep_verdict_line (p, (r : Check.result)) =
  let base =
    if r.Check.ok then
      if Property.equal p Property.voting then verdict_line r
      else
        Fmt.str "OK: %d runs, no %s violations where promised"
          r.Check.total_runs p.Property.id
    else verdict_line r
  in
  Fmt.str "validity=%s %s" p.Property.id base

(* One cell per enumerated execution; classification fans out (a single
   engine run per execution classified against every swept property),
   the aggregation + shrinking tail runs in [collect].  The verdict line
   rides along in [emitted] so the shared CLI emitter prints it after the
   tables in non-JSON formats.  With the default single-voting sweep the
   rendered output is byte-identical to the historical fixed-validity
   checker. *)
let campaign ?(properties = [ Property.voting ]) () =
  let module Campaign = Vv_exec.Campaign in
  let properties = if properties = [] then [ Property.voting ] else properties in
  Campaign.v ~id:"check"
    ~what:
      "Exhaustive small-model check: classify every execution, shrink \
       violations, witness tightness"
    ~cells:(fun profile ->
      Array.to_list (Space.executions (Check.dims_of profile)))
    ~run_cell:(fun _ exec -> Oracle.classify_run_sweep ~properties exec)
    ~collect:(fun profile pairs ->
      let execs = Array.of_list (List.map fst pairs) in
      let sweep = Array.of_list (List.map snd pairs) in
      let results =
        List.mapi
          (fun pi p ->
            let classes = Array.map (fun cs -> List.nth cs pi) sweep in
            ( p,
              Check.aggregate ~property:p profile ~execs ~classes ))
          properties
      in
      match results with
      | [ (p, r) ] when Property.equal p Property.voting ->
          { Campaign.tables = tables r; ok = r.Check.ok;
            verdict = Some (verdict_line r) }
      | _ ->
          {
            Campaign.tables = List.concat_map property_tables results;
            ok = List.for_all (fun (_, r) -> r.Check.ok) results;
            verdict =
              Some
                (String.concat "\n" (List.map sweep_verdict_line results));
          })
    ()
