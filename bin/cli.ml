(* Shared Cmdliner vocabulary for the campaign-running subcommands
   (exp/all/chaos/check): one --format/--profile/--jobs/--seed/--progress
   /--out bundle parsed into a single [opts] record, plus the helpers
   that run a campaign under those options and emit the result.

   Keeping the bundle here guarantees every subcommand accepts the same
   flags with the same semantics, and that output through [--out] is
   byte-identical to stdout (both render through the [Emit] string
   layer). *)

module C = Cmdliner
module Emit = Vv_exec.Emit
module Campaign = Vv_exec.Campaign
module Executor = Vv_exec.Executor

type opts = {
  format : Emit.format;
  profile : Campaign.profile;
  jobs : int;
  seed : int option;  (** [None] = the campaign's default seed *)
  progress : bool;
  out : string option;  (** write the report here instead of stdout *)
}

(* Cmdliner's [Arg.enum] also accepts any unambiguous prefix ([e2] for
   e21, [cs] for csv), so a mistyped name can select a different choice.
   This converter takes a name only as written; a miss is a usage error
   listing the choices.  Values are told apart with [==]: a campaign
   holds closures, which [=] cannot compare. *)
let exact_enum ~what choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Fmt.str "unknown %s %S (one of: %s)" what s
                (String.concat ", " (List.map fst choices))))
  in
  let print ppf v =
    Fmt.string ppf (fst (List.find (fun (_, v') -> v' == v) choices))
  in
  C.Arg.conv (parse, print)

let format_term =
  let fmt_conv =
    exact_enum ~what:"format"
      (List.map (fun f -> (Emit.to_string f, f)) Emit.all)
  in
  C.Arg.(
    value
    & opt fmt_conv Emit.Table
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,table) (human-readable, default), $(b,csv) \
           or $(b,json).")

let profile_term ~default =
  let profile_conv =
    exact_enum ~what:"profile"
      (List.map
         (fun p -> (Campaign.profile_label p, p))
         Campaign.all_profiles)
  in
  C.Arg.(
    value
    & opt profile_conv default
    & info [ "profile" ] ~docv:"P"
        ~doc:
          (Fmt.str
             "Campaign tier: $(b,smoke) (CI-sized grids) or $(b,full) \
              (paper-sized). Default $(b,%s)."
             (Campaign.profile_label default)))

(* Count flags: a value below the minimum is a usage error (exit 124)
   naming the flag, not an exception from deep inside the run. *)
let int_at_least ~flag min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ when min = 0 -> Error (`Msg (flag ^ " must be non-negative"))
    | Some _ -> Error (`Msg (Fmt.str "%s must be at least %d" flag min))
    | None -> Error (`Msg (flag ^ " must be an integer"))
  in
  C.Arg.conv (parse, Fmt.int)

let non_negative_int ~flag = int_at_least ~flag 0
let positive_int ~flag = int_at_least ~flag 1

(* A TCP port, 0 (any free port) to 65535.  A value past the range is a
   usage error, not a port taken modulo 65536 by the socket call. *)
let port_of_string s =
  match int_of_string_opt s with
  | Some p when p >= 0 && p <= 65535 -> Ok p
  | Some _ | None -> Error (`Msg (Fmt.str "port %S is not in 0-65535" s))

let port = C.Arg.conv (port_of_string, Fmt.int)

let jobs_term =
  C.Arg.(
    value
    & opt (non_negative_int ~flag:"--jobs") 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign's cell fan-out (default 1; \
           $(b,0) = all available cores but one). Output is identical \
           for every value.")

let seed_term =
  C.Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Campaign base seed; omit to use the campaign's default (which \
           reproduces the published tables).")

(* --trials of the randomised campaigns (chaos, gst, validity). *)
let trials_term =
  C.Arg.(
    value
    & opt (some (positive_int ~flag:"--trials")) None
    & info [ "trials" ] ~docv:"K"
        ~doc:"Override the profile's per-cell trial count (at least 1).")

let progress_term =
  C.Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Report done/total cells, throughput and ETA on stderr.")

let out_term =
  C.Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the report to FILE instead of stdout (byte-identical \
           content).")

let opts_term ~default_profile =
  let make format profile jobs seed progress out =
    { format; profile; jobs; seed; progress; out }
  in
  C.Term.(
    const make $ format_term
    $ profile_term ~default:default_profile
    $ jobs_term $ seed_term $ progress_term $ out_term)

(* --- progress reporting --- *)

(* Carriage-return ticker on stderr: done/total, cells/s and ETA from
   wall-clock since the first tick; final tick ends the line. *)
let progress_reporter ~label () =
  let start = Unix.gettimeofday () in
  fun (p : Executor.progress) ->
    let elapsed = Unix.gettimeofday () -. start in
    let rate =
      if elapsed > 0. then float_of_int p.Executor.done_ /. elapsed else 0.
    in
    let eta =
      if rate > 0. then
        Fmt.str "%.0fs" (float_of_int (p.Executor.total - p.Executor.done_) /. rate)
      else "-"
    in
    Printf.eprintf "\r%s: %d/%d cells (%.1f cells/s, ETA %s)%!" label
      p.Executor.done_ p.Executor.total rate eta;
    if p.Executor.done_ >= p.Executor.total then Printf.eprintf "\n%!"

(* --- running and emitting --- *)

let run_campaign opts c =
  let on_progress =
    if opts.progress then Some (progress_reporter ~label:(Campaign.id c) ())
    else None
  in
  Campaign.run ~profile:opts.profile ~jobs:opts.jobs ?seed:opts.seed
    ?on_progress c

let emitted_string fmt (e : Campaign.emitted) =
  let body = Emit.tables_string fmt e.Campaign.tables in
  match (fmt, e.Campaign.verdict) with
  | (Emit.Table | Emit.Csv), Some v -> body ^ v ^ "\n"
  | _ -> body

let output opts s =
  match opts.out with
  | None -> print_string s
  | Some path -> (
      (* Atomic: a failed or interrupted write must never leave a
         truncated file where the previous output was. *)
      match Vv_prelude.Io.write_atomic ~path s with
      | Ok () -> Fmt.epr "[written %s]@." path
      | Error msg ->
          Fmt.epr "vvc: cannot write %s: %s@." path msg;
          exit 1)

(* Run one campaign end-to-end under [opts]; exits 1 when the campaign
   reports not-ok (chaos safety violation, checker FAIL). *)
let handle opts c =
  let outcome = run_campaign opts c in
  let e = outcome.Campaign.emitted in
  output opts (emitted_string opts.format e);
  if not e.Campaign.ok then exit 1
