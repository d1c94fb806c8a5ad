(** The experiment registry: every figure/experiment of the paper keyed by
    id (DESIGN.md §4 is the index, EXPERIMENTS.md the paper-vs-measured
    record). Each entry is a first-class {!Vv_exec.Campaign.t}; ids and
    emitted tables are unchanged from the legacy closure registry. *)

val all : Vv_exec.Campaign.t list
(** Registry order — fig1a..fig1c, e4..e15, then e18, e19 and e21. *)

val find : string -> Vv_exec.Campaign.t option
val ids : string list
