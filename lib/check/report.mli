(** Rendering of checker results through the standard output layer, so
    [vvc check] speaks the same table/csv/json formats as the experiment
    subcommands. *)

val tables : Check.result -> Vv_prelude.Table.t list
(** Summary, tightness ledger, and (when any) the shrunk violations. *)

val verdict_line : Check.result -> string

val property_tables :
  Vv_ballot.Property.t * Check.result -> Vv_prelude.Table.t list
(** One property's slice of a multi-validity sweep: the
    [validity]-labeled summary, the tightness ledger only for the voting
    property, and any violations. *)

val sweep_verdict_line : Vv_ballot.Property.t * Check.result -> string
(** ["validity=<id> OK/FAIL ..."]. *)

val campaign :
  ?properties:Vv_ballot.Property.t list ->
  unit ->
  Vv_exec.Campaign.t
(** The checker as a campaign: one cell per enumerated execution, the
    aggregation and shrinking tail in the collector, [ok] and the
    verdict line carried in the emitted value. [properties] (default
    [[Property.voting]]) selects the validity sweep; the engine runs
    once per execution regardless of how many properties are swept.
    With the default, output is byte-identical to the historical
    fixed-validity checker; with several properties the collector emits
    one labeled summary (and verdict line) per property and [ok] demands
    every per-property result be ok. *)
