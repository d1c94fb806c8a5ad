(* The repository benchmark: three workloads over the library's public
   functions, one process each run.

     main.exe --workload check-full|serve-commit|serve-recover
              --seed N --seconds S --trace 0|1

   Run from the checkout root (vvbench/run.sh builds and starts it).
   With --trace 0 the last stdout line carries the end-to-end metrics
   declared in BENCHMARK.json; with --trace 1 a separate replay times each
   layer from outside and the line carries the per-layer metrics.  Lines
   before it are the human-readable report. *)

module Json = Vv_prelude.Json

let usage =
  "main.exe --workload check-full|serve-commit|serve-recover --seed N \
   --seconds S --trace 0|1"

let fail msg =
  prerr_endline ("vvbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | arg :: _ -> fail ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. -> (!workload, seed, seconds, trace)
  | _ -> fail "missing or malformed argument"

(* The metric names and units BENCHMARK.json declares, in its order. *)
let declared key =
  let body = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json.of_string body with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt key fields with
      | Some (Json.List items) ->
          List.map
            (function
              | Json.Obj m -> (
                  match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
                  | Some (Json.String n), Some (Json.String u) -> (n, u)
                  | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
              | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
            items
      | _ -> failwith ("BENCHMARK.json: no " ^ key))
  | _ -> failwith "BENCHMARK.json: not a JSON object"

(* Sockets and snapshots live in a per-process directory under the
   checkout, removed on exit. *)
let scratch_dir () =
  let root = ".bench_tmp" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  dir

let () =
  let workload, seed, seconds, trace = parse_args () in
  let run =
    match (workload, trace) with
    | "check-full", false -> fun _ -> Check_full.run_untraced ~seconds
    | "check-full", true -> fun _ -> Check_full.run_traced ~seconds
    | "serve-commit", false -> fun dir -> Serve_commit.run_untraced ~dir ~seed ~seconds
    | "serve-commit", true -> fun dir -> Serve_commit.run_traced ~dir ~seed ~seconds
    | "serve-recover", false -> fun dir -> Serve_recover.run_untraced ~dir ~seed ~seconds
    | "serve-recover", true -> fun dir -> Serve_recover.run_traced ~dir ~seed ~seconds
    | w, _ -> fail ("unknown workload " ^ w)
  in
  let declared = declared (if trace then "per_layer" else "end_to_end") in
  let result = run (scratch_dir ()) in
  Measure.emit ~declared result
