(* Table campaigns declared as sections: one table per section, at most
   one row per cell.  Every section's cells become one flat cell list,
   each cell tagged with its section's position, and [collect] adds each
   row to that section's table, so the rows land in cell order. *)

module Table = Vv_prelude.Table
module Campaign = Vv_exec.Campaign

type section =
  | Section : {
      table : unit -> Table.t;
      cells : Campaign.profile -> 'cell list;
      row : Campaign.ctx -> 'cell -> string list option;
    }
      -> section

let section ~table ~cells ~row = Section { table; cells; row }

let campaign ~id ~what sections =
  Campaign.v ~id ~what
    ~cells:(fun profile ->
      List.concat
        (List.mapi
           (fun i (Section s) ->
             List.map (fun c -> (i, fun ctx -> s.row ctx c)) (s.cells profile))
           sections))
    ~run_cell:(fun ctx (_, row) -> row ctx)
    ~collect:(fun _ pairs ->
      let tables =
        Array.of_list (List.map (fun (Section s) -> s.table ()) sections)
      in
      List.iter
        (fun ((i, _), row) -> Option.iter (Table.add_row tables.(i)) row)
        pairs;
      Campaign.tables (Array.to_list tables))
    ()
