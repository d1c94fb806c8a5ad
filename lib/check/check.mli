(** The exhaustive small-model checker's aggregation.

    {!Report.campaign} enumerates the profile's state space, fans the
    engine runs out through {!Vv_exec.Campaign.run} and classifies every
    execution against {!Oracle}; {!aggregate} folds the classes into a
    result and shrinks what gets reported. Output is byte-identical at
    every [jobs] value: the fan-out is index-addressed and everything
    after it is sequential. *)

type profile = Vv_exec.Campaign.profile = Smoke | Full
(** Re-export of {!Vv_exec.Campaign.profile}, so the checker shares the
    CLI's tier vocabulary. *)

val dims_of : profile -> Space.dims
val profile_label : profile -> string

type counterexample = {
  original : Space.execution;
  shrunk : Shrink.result;
  class_ : Oracle.class_;
  outcome : Vv_core.Runner.outcome option;
      (** re-run of the shrunk execution, for trace reporting *)
}

type group_stats = {
  protocol : Vv_core.Runner.protocol;
  substrate : string;
  cells : int;
  runs : int;
  exact : int;
  stall_admissible : int;
  defeated : int;
  violations : int;
}

type tightness = {
  kind : Vv_core.Bounds.kind;
  below_bound_cells : int;
  witnessed_cells : int;  (** below-bound cells with >= 1 witnessing run *)
  below_bound_runs : int;
  witness : counterexample option;  (** first witness in enumeration order, shrunk *)
}

type result = {
  profile : profile;
  total_cells : int;
  total_runs : int;
  groups : group_stats list;  (** per (protocol, substrate), enumeration order *)
  violations : counterexample list;  (** shrunk; at most 10 *)
  violations_total : int;
  tightness : tightness list;  (** one row per bound kind (Bft, Cft, Sct) *)
  ok : bool;
      (** no violations anywhere, and every bound kind has a below-bound
          tightness witness *)
}

val aggregate :
  ?max_shrink_trials:int ->
  ?property:Vv_ballot.Property.t ->
  profile ->
  execs:Space.execution array ->
  classes:Oracle.class_ array ->
  result
(** The sequential tail of a check run: fold the index-addressed
    classification array (as produced by {!Oracle.classify_run} per
    execution of {!Space.executions}) into the aggregated result.
    [property] (default {!Vv_ballot.Property.voting}) is the property
    the classes were computed against; shrinking re-classifies under it,
    and for non-voting properties [ok] demands only freedom from
    violations (tightness is a statement about the voting bounds).
    At most 10 violations are shrunk and carried in the result —
    [violations_total] still counts all. *)
