(** Table campaigns: experiments whose cells each add at most one row to
    one of their tables.

    Such a campaign is a list of sections, one per table, each with its
    own cells and row kernel. {!campaign} compiles them to one
    {!Vv_exec.Campaign.t} whose cell list is the sections' cells in
    section order, so cell indices, derived seeds and progress ticks
    run on from one section into the next. *)

type section

val section :
  table:(unit -> Vv_prelude.Table.t) ->
  cells:(Vv_exec.Campaign.profile -> 'cell list) ->
  row:(Vv_exec.Campaign.ctx -> 'cell -> string list option) ->
  section
(** One table: [table ()] makes it empty, and each cell's [row] adds
    that row to it, or nothing when it returns [None]. *)

val campaign : id:string -> what:string -> section list -> Vv_exec.Campaign.t
(** The sections' tables, in section order, with their rows in cell
    order; [ok] is always [true] and the seed is the default [0]. *)
