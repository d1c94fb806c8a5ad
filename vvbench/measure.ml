(* Clock, statistics and result output shared by the three workloads.

   Every timing comes from the monotonic clock (nanosecond resolution);
   every sample buffer is preallocated, so how long a run lasts does not
   change how much heap it retains (which would move heap_peak_mb). *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_float (clock_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Quantile with linear interpolation between closest ranks. *)
let quantile_sorted (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5

(* Host-speed calibration.  The benchmark's host is a few virtual CPUs of
   a shared machine whose speed drifts by a third or more over minutes
   (NOTES.md, "The host's speed drifts"), with no steal time: the process
   is on the CPU the whole time, it just runs slower.  A fixed kernel of
   this file's own code, which no library change can touch, is timed
   between the workload's timed units; each unit's time is then scaled by
   [nominal_s / kernel time] (the mean of the kernels just before and just
   after it), which reads it at the speed the host had when the kernel
   took [nominal_s].  The kernel mixes an integer loop over a 512 KiB
   table (about 30% of its time) with short-lived allocation (70%),
   because the workloads do both; over run-length windows of a 7-minute
   probe it cut the drift of check-full's sweep time from 1.31x to
   1.07-1.10x (max/min window median; NOTES.md). *)
module Speed = struct
  let tables = Array.init 2 (fun _ -> Array.make 65536 1)

  let int_part table =
    let x = ref 12345 and acc = ref 0 in
    for _ = 1 to 5_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let i = !x land 65535 in
      acc := !acc + table.(i);
      table.(i) <- !acc land 7
    done;
    !acc

  let alloc_part () =
    let total = ref 0 in
    for k = 1 to 130 do
      let l = List.init 2000 (fun i -> (i * k, string_of_int i)) in
      let kept =
        List.fold_left
          (fun m (a, s) -> if a land 3 = 0 then (a + String.length s) :: m else m)
          [] l
      in
      total := !total + List.length kept
    done;
    !total

  (* The kernel's time on a quiet 2-vCPU Xeon (2.0 GHz) host. *)
  let nominal_s = 0.035

  let timed table () =
    let t0 = now () in
    ignore (Sys.opaque_identity (int_part table));
    ignore (Sys.opaque_identity (alloc_part ()));
    now () -. t0

  (* One kernel run per domain, [domains] (1 or 2) at once; the mean of
     their times, in seconds. *)
  let sample ?(domains = 1) () =
    let other = if domains > 1 then Some (Domain.spawn (timed tables.(1))) else None in
    let mine = timed tables.(0) () in
    match other with None -> mine | Some d -> (mine +. Domain.join d) /. 2.

  (* The factor for a unit timed between kernels [before] and [after]. *)
  let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)
end

(* A fixed-capacity sample buffer; samples beyond the capacity are
   dropped (capacities are sized well above what a 60 s run collects). *)
module Samples = struct
  type t = { data : Float.Array.t; mutable len : int }

  let create capacity = { data = Float.Array.make capacity 0.; len = 0 }

  let add s x =
    if s.len < Float.Array.length s.data then begin
      Float.Array.set s.data s.len x;
      s.len <- s.len + 1
    end

  let count s = s.len
  let reset s = s.len <- 0

  let quantile s q =
    let a = Array.init s.len (Float.Array.get s.data) in
    Array.sort Float.compare a;
    quantile_sorted a q
end

(* Histogram of durations that arrive already quantized to whole
   microseconds (the campaign executor's per-cell wall-clock).  The
   quantile treats each bucket as spread evenly over its microsecond, the
   grouped-data estimate, so a median sitting near a bucket edge does not
   jump by a whole microsecond between runs. *)
module Us_hist = struct
  type t = { counts : int array; mutable total : int }

  let create max_us = { counts = Array.make (max_us + 1) 0; total = 0 }

  let add h seconds =
    let us = Float.to_int (Float.round (seconds *. 1e6)) in
    let b = max 0 (min us (Array.length h.counts - 1)) in
    h.counts.(b) <- h.counts.(b) + 1;
    h.total <- h.total + 1

  let total h = h.total

  let reset h =
    Array.fill h.counts 0 (Array.length h.counts) 0;
    h.total <- 0

  (* In milliseconds. *)
  let quantile h q =
    let target = q *. float_of_int h.total in
    let rec go b below =
      let c = h.counts.(b) in
      if b = Array.length h.counts - 1 || float_of_int (below + c) >= target
      then
        let inside = if c = 0 then 0.5 else (target -. float_of_int below) /. float_of_int c in
        (float_of_int b -. 0.5 +. inside) *. 1e-3
      else go (b + 1) (below + c)
    in
    if h.total = 0 then nan else go 0 0
end

(* Accumulators keyed by layer name, in first-use order. *)
module Acc = struct
  type t = { mutable keys : string list; tbl : (string, float ref) Hashtbl.t }

  let create () = { keys = []; tbl = Hashtbl.create 16 }

  let cell a name =
    match Hashtbl.find_opt a.tbl name with
    | Some r -> r
    | None ->
        let r = ref 0. in
        Hashtbl.replace a.tbl name r;
        a.keys <- a.keys @ [ name ];
        r

  let add a name x =
    let r = cell a name in
    r := !r +. x

  let get a name = match Hashtbl.find_opt a.tbl name with Some r -> !r | None -> 0.
end

(* Median of each key across several accumulators (one per replay). *)
let median_by_key (accs : Acc.t list) =
  match accs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun k -> (k, median (List.map (fun a -> Acc.get a k) accs)))
        first.Acc.keys

(* Live major heap after a full collection, in MB: what the process
   retains at that point.  The workloads sample it at the end of timed
   iterations and report the largest sample as heap_peak_mb; the
   collector's top heap is not used because it moves with how far the
   major GC lagged behind the allocation, which varies run to run. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

(* --- results --- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* A traced run's per-layer attribution for one workload.  [parts] are
   the additive layers of [e2e_s]; [residual] is named here and computed
   as what they leave unexplained.  [children] break one part down
   further (they are inside their parent, not added again). *)
type breakdown = {
  workload : string;
  e2e_s : float;
  e2e_what : string;
  parts : (string * float) list;
  residual : string;
  children : (string * string * float) list;  (** name, parent, seconds *)
  extra : metric list;  (** counts and client-side figures *)
  overhead_ratio : float;
  samples : string;
}

let residual_flag = 0.20

let layer_metrics b =
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. b.parts in
  let residual = b.e2e_s -. sum in
  let share v = if b.e2e_s > 0. then v /. b.e2e_s else nan in
  let line name value unit_ note =
    Printf.printf "  %-38s %14.6f %-6s %s\n" name value unit_ note
  in
  Printf.printf "%s: per-layer breakdown of %s = %.6f s (%s)\n" b.workload
    b.e2e_what b.e2e_s b.samples;
  List.iter
    (fun (name, v) ->
      line name v "s" (Printf.sprintf "%5.1f%% of end-to-end" (100. *. share v));
      List.iter
        (fun (c, parent, cv) ->
          if parent = name then
            line ("  " ^ c) cv "s"
              (Printf.sprintf "%5.1f%% of %s" (100. *. cv /. v) name))
        b.children)
    b.parts;
  line b.residual residual "s"
    (Printf.sprintf "%5.1f%% of end-to-end (what the layers leave unexplained)"
       (100. *. share residual));
  let dom_name, dom_v =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      (b.residual, residual) b.parts
  in
  Printf.printf "  dominant layer: %s at %.1f%% of end-to-end\n" dom_name
    (100. *. share dom_v);
  if share residual > residual_flag then
    Printf.printf
      "  FINDING: residual %s is %.1f%% of end-to-end (> %.0f%%): time the \
       named layers do not account for\n"
      b.residual (100. *. share residual) (100. *. residual_flag);
  List.iter (fun m -> line m.name m.value m.unit_ "") b.extra;
  line "trace.overhead_ratio" b.overhead_ratio "ratio"
    "(timed replay vs the same replay without timers)";
  List.map (fun (n, v) -> { name = n; value = v; unit_ = "s" }) b.parts
  @ [ { name = b.residual; value = residual; unit_ = "s" } ]
  @ List.map (fun (n, _, v) -> { name = n; value = v; unit_ = "s" }) b.children
  @ b.extra
  @ [
      { name = "trace.e2e_s"; value = b.e2e_s; unit_ = "s" };
      { name = "trace.residual_share"; value = share residual; unit_ = "ratio" };
      { name = "trace.overhead_ratio"; value = b.overhead_ratio; unit_ = "ratio" };
    ]

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s = Printf.sprintf "%S" s

(* The last line of standard output: exactly the [declared] metrics, in
   declared order; a declared metric this workload does not produce reads
   0 (its layer is not on this workload's path). *)
let emit ~declared r =
  let find name = List.find_opt (fun m -> m.name = name) r.metrics in
  List.iter
    (fun m ->
      match List.assoc_opt m.name declared with
      | Some u when u = m.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "%s: unit %s, declared %s" m.name m.unit_ u)
      | None -> failwith ("metric not declared in BENCHMARK.json: " ^ m.name))
    r.metrics;
  let fields =
    List.map
      (fun (name, unit_) ->
        let value = match find name with Some m -> m.value | None -> 0. in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float value) (json_string unit_))
      declared
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", " fields)
