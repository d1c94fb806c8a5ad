(* Compare two bench JSON files (as written by `bench/main.exe --json=...`:
   an array of {name, ns_per_run, runs} records) and fail on regressions.

   Usage: diff.exe BASELINE CURRENT [--tolerance=0.25]

   A row regresses when its ns_per_run exceeds the baseline's by more than
   the relative tolerance (default 25%).  Rows present only in the current
   run are reported but never fail (new benchmarks need no baseline yet);
   rows present only in the baseline fail, so a renamed or dropped
   benchmark forces a deliberate baseline regeneration.  Exit status: 0
   when clean, 1 on any regression or missing row, 2 on usage/parse
   errors. *)

module Json = Vv_prelude.Json

let read_rows path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match Json.of_string body with
  | Error msg -> Error (Printf.sprintf "%s: parse error: %s" path msg)
  | Ok (Json.List entries) -> (
      try
        Ok
          (List.map
             (fun entry ->
               match entry with
               | Json.Obj fields ->
                   let name =
                     match Json.member "name" fields with
                     | Some (Json.String s) -> s
                     | _ -> failwith "row without a name"
                   in
                   let ns =
                     match Json.member "ns_per_run" fields with
                     | Some (Json.Float v) -> Some v
                     | Some (Json.Int v) -> Some (float_of_int v)
                     | Some Json.Null | None -> None
                     | Some _ -> failwith "ns_per_run is not a number"
                   in
                   (name, ns)
               | _ -> failwith "row is not an object")
             entries)
      with Failure msg -> Error (Printf.sprintf "%s: %s" path msg))
  | Ok _ -> Error (Printf.sprintf "%s: expected a top-level array" path)

let () =
  let args = Array.to_list Sys.argv in
  let tolerance = ref 0.25 in
  let files = ref [] in
  List.iter
    (fun a ->
      if a = Sys.argv.(0) then ()
      else
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--tolerance" ->
            let v = String.sub a (i + 1) (String.length a - i - 1) in
            tolerance := float_of_string v
        | _ -> files := a :: !files)
    args;
  match List.rev !files with
  | [ baseline_path; current_path ] -> (
      match (read_rows baseline_path, read_rows current_path) with
      | Error msg, _ | _, Error msg ->
          prerr_endline msg;
          exit 2
      | Ok baseline, Ok current ->
          let failures = ref 0 in
          Printf.printf "%-50s %12s %12s %9s\n" "benchmark" "baseline-ns"
            "current-ns" "ratio";
          List.iter
            (fun (name, base_ns) ->
              match (base_ns, List.assoc_opt name current) with
              | _, None ->
                  incr failures;
                  Printf.printf "%-50s %12s %12s %9s  MISSING\n" name "-" "-"
                    "-"
              | None, Some _ ->
                  (* No baseline estimate (n/a row): nothing to gate on. *)
                  ()
              | Some b, Some None ->
                  incr failures;
                  Printf.printf "%-50s %12.1f %12s %9s  NO-ESTIMATE\n" name b
                    "n/a" "-"
              | Some b, Some (Some c) ->
                  let ratio = if b > 0.0 then c /. b else Float.infinity in
                  let regressed = ratio > 1.0 +. !tolerance in
                  if regressed then incr failures;
                  Printf.printf "%-50s %12.1f %12.1f %9.2f%s\n" name b c ratio
                    (if regressed then "  REGRESSION" else ""))
            baseline;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name baseline) then
                Printf.printf "%-50s %12s (new benchmark, not gated)\n" name
                  "-")
            current;
          if !failures > 0 then begin
            Printf.printf
              "\n%d benchmark(s) regressed beyond %.0f%% or went missing.\n"
              !failures
              (!tolerance *. 100.0);
            exit 1
          end
          else
            Printf.printf "\nAll benchmarks within %.0f%% of the baseline.\n"
              (!tolerance *. 100.0))
  | _ ->
      prerr_endline
        "usage: diff.exe BASELINE.json CURRENT.json [--tolerance=0.25]";
      exit 2
