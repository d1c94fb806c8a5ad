(* Declarative experiment campaigns.

   A campaign is a first-class description of one experiment: an id, a
   one-line [what], a profile-indexed cell list, a per-cell kernel, and a
   collector that turns the (cell, row) pairs back into tables.  [run]
   compiles that description onto [Executor.map] with chunk size 1 — each
   cell is the unit of parallel work and of progress reporting — so every
   campaign inherits the executor's jobs-invariance: rows are
   index-addressed, cell seeds depend only on (base seed, cell index), and
   [collect] always sees the pairs in cell-list order, no matter how many
   domains ran them.

   Campaigns whose legacy implementation drew from one rng shared across
   the whole table (fig1b, e8, e15) are modelled as single-cell campaigns;
   fig1b's cell threads [ctx.jobs] down to an inner [Executor.map] over
   runs drawn beforehand on the calling domain, so it stays
   jobs-invariant.  Everything else gets genuine per-cell fan-out. *)

module Table = Vv_prelude.Table

type profile = Smoke | Full

let all_profiles = [ Smoke; Full ]
let profile_label = function Smoke -> "smoke" | Full -> "full"

type ctx = {
  profile : profile;
  base_seed : int;
  cell_seed : int;
  index : int;
  jobs : int;
}

type emitted = { tables : Table.t list; ok : bool; verdict : string option }

let tables tbls = { tables = tbls; ok = true; verdict = None }
let cell_tables _ pairs = tables (List.map snd pairs)

type ('cell, 'row) def = {
  id : string;
  what : string;
  default_seed : int;
  cells : profile -> 'cell list;
  run_cell : ctx -> 'cell -> 'row;
  collect : profile -> ('cell * 'row) list -> emitted;
}

type t = Def : ('cell, 'row) def -> t

let v ~id ~what ?(seed = 0) ~cells ~run_cell ~collect () =
  Def { id; what; default_seed = seed; cells; run_cell; collect }

let id (Def d) = d.id
let what (Def d) = d.what
let default_seed (Def d) = d.default_seed

type outcome = {
  emitted : emitted;
  cells_run : int;
  elapsed : float;
  cell_seconds : float array;
}

let run ?(profile = Full) ?(jobs = 1) ?seed ?on_progress (Def d) =
  let base_seed = Option.value seed ~default:d.default_seed in
  let cells = Array.of_list (d.cells profile) in
  let count = Array.length cells in
  let t0 = Unix.gettimeofday () in
  let timed =
    Executor.map ~chunk_size:1 ~jobs ?on_progress ~count (fun i ->
        let ctx =
          {
            profile;
            base_seed;
            cell_seed = Executor.derive_seed ~seed:base_seed i;
            index = i;
            jobs;
          }
        in
        let c0 = Unix.gettimeofday () in
        let row = d.run_cell ctx cells.(i) in
        (row, Unix.gettimeofday () -. c0))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let pairs =
    Array.to_list (Array.mapi (fun i (row, _) -> (cells.(i), row)) timed)
  in
  let emitted = d.collect profile pairs in
  { emitted; cells_run = count; elapsed; cell_seconds = Array.map snd timed }
