(** Declarative experiment campaigns compiled onto {!Executor.map}.

    A campaign is a first-class value describing one experiment: an id, a
    one-line [what], a profile-indexed cell list, a per-cell kernel, and a
    collector folding the (cell, row) pairs back into tables. Running one
    inherits the executor's determinism contract: cells are
    index-addressed, each cell's derived seed depends only on (base seed,
    cell index), and the collector sees pairs in cell-list order at every
    [jobs] value — so a campaign's emitted tables are byte-identical
    whether it ran on one domain or many. *)

type profile = Smoke | Full
(** The two tiers every campaign supports: [Smoke] is the CI-sized grid,
    [Full] the paper-sized one. *)

val all_profiles : profile list
val profile_label : profile -> string

type ctx = {
  profile : profile;  (** the tier this run was invoked at *)
  base_seed : int;  (** campaign seed ([--seed] or the campaign default) *)
  cell_seed : int;  (** {!Executor.derive_seed}[ ~seed:base_seed index] *)
  index : int;  (** this cell's position in the cell list *)
  jobs : int;
      (** worker-domain budget, for cells that thread parallelism into an
          inner jobs-invariant sweep instead of fanning out per cell *)
}
(** What a cell kernel may depend on. Nothing else — in particular not
    the claiming domain or any shared mutable state — so results cannot
    depend on scheduling. *)

type emitted = {
  tables : Vv_prelude.Table.t list;
  ok : bool;  (** [false] makes the CLI exit non-zero (chaos, check) *)
  verdict : string option;
      (** a trailing human-facing line, printed after the tables in
          non-JSON formats (the model checker's OK/VIOLATIONS line) *)
}

val tables : Vv_prelude.Table.t list -> emitted
(** The common case: tables only, [ok = true], no verdict. *)

val cell_tables : profile -> ('cell * Vv_prelude.Table.t) list -> emitted
(** The collector of a campaign whose cells each build one whole table:
    those tables, in cell order. *)

type t
(** A campaign with its cell and row types hidden, so heterogeneous
    campaigns form one registry list. *)

val v :
  id:string ->
  what:string ->
  ?seed:int ->
  cells:(profile -> 'cell list) ->
  run_cell:(ctx -> 'cell -> 'row) ->
  collect:(profile -> ('cell * 'row) list -> emitted) ->
  unit ->
  t
(** [v ~id ~what ~cells ~run_cell ~collect ()] declares a campaign.
    [seed] (default [0]) is the base seed used when the caller passes
    none — ported experiments keep their legacy hard-coded seed here so
    default outputs are unchanged. *)

val id : t -> string
val what : t -> string
val default_seed : t -> int

type outcome = {
  emitted : emitted;
  cells_run : int;
  elapsed : float;  (** wall-clock seconds for the whole campaign *)
  cell_seconds : float array;  (** per-cell wall-clock, index-addressed *)
}

val run :
  ?profile:profile ->
  ?jobs:int ->
  ?seed:int ->
  ?on_progress:(Executor.progress -> unit) ->
  t ->
  outcome
(** Run a campaign: enumerate cells for [profile] (default [Full]), fan
    them out over {!Executor.map} with chunk size 1 (each cell is one
    unit of work and one progress tick), and collect. [jobs] defaults to
    [1]; [0] means all cores but one; emitted tables are identical at
    every value. [seed] overrides the campaign's default base seed.
    Raises [Invalid_argument] when [jobs < 0]. *)
