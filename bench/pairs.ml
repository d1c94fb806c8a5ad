(* Summarise alternating benchmark pairs (`make bench-pairs`).

   Usage: pairs.exe BENCHMARK.json BASE.jsonl CHANGE.jsonl

   Each .jsonl file holds the last stdout line of one vvbench run per
   line (`bash vvbench/run.sh ... --trace 0`); line i of both files is
   pair i.  For each end-to-end metric BENCHMARK.json declares, one row:
   the base's and the change's median with their quartiles, the ratio of
   the medians, the pairs the change won, the bound, and whether the
   change's median is worse than the base's by more than that bound.
   Then failed/attempted for each side.  Exit status: 0 once the tables
   print, 2 on usage or parse errors. *)

module Json = Vv_prelude.Json
module Stats = Vv_prelude.Stats
module Table = Vv_prelude.Table

type metric = { name : string; unit_ : string; lower : bool; bound : float }

type run = {
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let metrics path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string body with
  | Ok (Json.Obj fields) -> (
      match Json.member "end_to_end" fields with
      | Some (Json.List items) ->
          List.map
            (function
              | Json.Obj m -> (
                  match
                    ( Json.member "name" m,
                      Json.member "unit" m,
                      Json.member "better" m,
                      number (Json.member "bound" m) )
                  with
                  | ( Some (Json.String name),
                      Some (Json.String unit_),
                      Some (Json.String better),
                      Some bound ) ->
                      { name; unit_; lower = better = "lower"; bound }
                  | _ -> fail "%s: malformed end_to_end entry" path)
              | _ -> fail "%s: malformed end_to_end entry" path)
            items
      | _ -> fail "%s: no end_to_end list" path)
  | _ -> fail "%s: not a JSON object" path

let runs path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.mapi (fun i line ->
         match Json.of_string line with
         | Ok (Json.Obj fields) -> (
             let int key =
               match Json.member key fields with
               | Some (Json.Int n) -> n
               | _ -> fail "%s:%d: no %s count" path (i + 1) key
             in
             match Json.member "metrics" fields with
             | Some (Json.Obj ms) ->
                 {
                   attempted = int "attempted";
                   failed = int "failed";
                   values =
                     List.filter_map
                       (fun (name, m) ->
                         match m with
                         | Json.Obj v ->
                             Option.map
                               (fun x -> (name, x))
                               (number (Json.member "value" v))
                         | _ -> None)
                       ms;
                 }
             | _ -> fail "%s:%d: no metrics" path (i + 1))
         | _ -> fail "%s:%d: not a vvbench result line" path (i + 1))

let value path m run =
  match List.assoc_opt m.name run.values with
  | Some v -> v
  | None -> fail "%s: a run lacks %s" path m.name

let num v =
  if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let spread values =
  Printf.sprintf "%s [%s-%s]" (num (Stats.median values))
    (num (Stats.percentile values 25.))
    (num (Stats.percentile values 75.))

let () =
  let spec, base_path, change_path =
    match Sys.argv with
    | [| _; spec; base; change |] -> (spec, base, change)
    | _ -> fail "usage: pairs.exe BENCHMARK.json BASE.jsonl CHANGE.jsonl"
  in
  let base = runs base_path and change = runs change_path in
  let pairs = List.length base in
  if pairs = 0 || List.length change <> pairs then
    fail "%s and %s must hold the same, non-zero number of runs" base_path
      change_path;
  let table =
    Table.create
      ~title:(Printf.sprintf "%d alternating pairs: base vs change" pairs)
      ~headers:
        [
          "metric"; "unit"; "base median [q1-q3]"; "change median [q1-q3]";
          "ratio"; "change won"; "bound"; "verdict";
        ]
      ~aligns:Table.[ Left; Left; Right; Right; Right; Right; Right; Left ]
      ()
  in
  List.iter
    (fun m ->
      let b = List.map (value base_path m) base
      and c = List.map (value change_path m) change in
      let better x y = if m.lower then x < y else x > y in
      let won = List.length (List.filter Fun.id (List.map2 better c b)) in
      let mb = Stats.median b and mc = Stats.median c in
      let worse =
        if m.lower then mc > mb *. (1. +. m.bound)
        else mc < mb *. (1. -. m.bound)
      in
      Table.add_row table
        [
          m.name; m.unit_; spread b; spread c;
          Printf.sprintf "%.3f" (mc /. mb);
          Printf.sprintf "%d/%d" won pairs;
          Printf.sprintf "%g" m.bound;
          (if worse then "WORSE" else "ok");
        ])
    (metrics spec);
  Table.print table;
  let failed side runs =
    Printf.printf "%s: failed %d of %d attempted\n" side
      (List.fold_left (fun acc r -> acc + r.failed) 0 runs)
      (List.fold_left (fun acc r -> acc + r.attempted) 0 runs)
  in
  failed "base" base;
  failed "change" change
