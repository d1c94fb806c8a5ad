(** Engine plumbing for the baseline protocols (experiment E8). *)

type summary = {
  outputs : int option list;  (** honest nodes, node-id order *)
  rounds : int;
  stalled : bool;
}

module Median_E : module type of Vv_sim.Engine.Make (Vv_baselines.Median_validity)
module Interval_E : module type of Vv_sim.Engine.Make (Vv_baselines.Interval_validity)
module Strong_E : module type of Vv_sim.Engine.Make (Vv_baselines.Strong_consensus)
module Kset_E : module type of Vv_sim.Engine.Make (Vv_baselines.Kset)
module Approx_E : module type of Vv_sim.Engine.Make (Vv_baselines.Approx)

val run_median :
  Vv_sim.Config.t ->
  inputs:(Vv_sim.Types.node_id -> int) ->
  collude:bool ->
  summary

val run_interval :
  Vv_sim.Config.t ->
  inputs:(Vv_sim.Types.node_id -> Vv_baselines.Interval_validity.query) ->
  collude:bool ->
  summary

val run_strong :
  Vv_sim.Config.t ->
  inputs:(Vv_sim.Types.node_id -> int) ->
  collude:bool ->
  summary

val run_kset :
  Vv_sim.Config.t ->
  inputs:(Vv_sim.Types.node_id -> Vv_baselines.Kset.input) ->
  summary

val run_approx :
  Vv_sim.Config.t ->
  inputs:(Vv_sim.Types.node_id -> Vv_baselines.Approx.input) ->
  outlier:float option ->
  float option list * int * bool
(** [(honest outputs, rounds, stalled)] — outputs stay floats. *)
