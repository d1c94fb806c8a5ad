(* Message delay models.

   A message sent in round r is delivered at the start of round
   r + delay, with delay >= 1.  The models are the three behaviours of
   the synchrony axis (Tseng, arXiv 1608.07923):

   - [Uniform] is synchrony with a known bound delta_t = hi.  At
     lo = hi it is a fixed delay that draws nothing ([synchronous] is
     the paper's lock-step model, lo = hi = 1); otherwise it provides
     the staggered arrivals that make the incremental-threshold
     protocol (Algorithm 3) interesting.
   - [Asynchronous] has no protocol-visible bound at all: the scheduler
     (or an adversary-supplied schedule) picks per-message delays freely
     under a fairness cap guaranteeing every message is eventually
     delivered.
   - [Eventually_synchronous] is the GST model: arbitrary scheduling
     before a global stabilization time, bounded delay after it, with
     every pre-GST message forced to land by gst + bound (the classic
     "messages sent before GST arrive by GST + delta" convention).  At
     gst = 0 with a schedule it is the strong adversary's
     message-delaying power under synchrony. *)

type schedule = round:int -> src:Types.node_id -> dst:Types.node_id -> int

type t =
  | Uniform of { lo : int; hi : int }
  | Asynchronous of { fairness : int; schedule : schedule option }
  | Eventually_synchronous of { gst : int; bound : int; schedule : schedule option }

(* One shared value, so specs built with the default delay compare
   physically equal (the runner's prefix memo keys on [==]). *)
let synchronous = Uniform { lo = 1; hi = 1 }

let validate = function
  | Uniform { lo; hi } ->
      if lo < 1 || hi < lo then invalid_arg "Delay.Uniform: need 1 <= lo <= hi"
  | Asynchronous { fairness; _ } ->
      if fairness < 1 then
        invalid_arg "Delay.Asynchronous: fairness must be >= 1"
  | Eventually_synchronous { gst; bound; _ } ->
      if gst < 0 then
        invalid_arg "Delay.Eventually_synchronous: gst must be >= 0";
      if bound < 1 then
        invalid_arg "Delay.Eventually_synchronous: bound must be >= 1"

(* The known delay upper bound delta_t (in rounds) honest protocols may rely
   on; [None] for genuine asynchrony (the fairness cap is a liveness
   guarantee, not a synchrony assumption).  Under GST this is the
   *eventual* bound — what a partially-synchronous protocol knows holds
   from some unknown round on. *)
let bound = function
  | Uniform { hi; _ } -> Some hi
  | Asynchronous _ -> None
  | Eventually_synchronous { bound; _ } -> Some bound

(* The largest delay any message sent at [round] may be assigned — the
   engine's clamp for chaos jitter, so substrate reordering cannot break
   the model's own delivery guarantee.  For GST it shrinks toward the
   bound as the send round approaches gst (a pre-GST message must still
   land by gst + bound); for [Asynchronous] it is the fairness cap. *)
let max_delay t ~round =
  match t with
  | Uniform { hi; _ } -> hi
  | Asynchronous { fairness; _ } -> fairness
  | Eventually_synchronous { gst; bound; _ } ->
      if round >= gst then bound else gst + bound - round

(* A schedule's delay, checked against the model's per-round cap; a
   breach names the model, its declared bound and the offending point. *)
let scheduled t f ~round ~src ~dst =
  let d = f ~round ~src ~dst in
  (if d < 1 || d > max_delay t ~round then
     let what, bound =
       match t with
       | Uniform { hi; _ } -> ("Uniform", hi)
       | Asynchronous { fairness; _ } -> ("Asynchronous", fairness)
       | Eventually_synchronous { gst; bound; _ } ->
           (Fmt.str "Eventually_synchronous(gst %d)" gst, bound)
     in
     invalid_arg
       (Fmt.str
          "Delay.%s: schedule returned %d against declared bound %d at \
           (round %d, src %d, dst %d)"
          what d bound round src dst));
  d

let resolve t rng ~round ~src ~dst =
  match t with
  | Uniform { lo; hi } ->
      if lo = hi then lo else lo + Vv_prelude.Rng.int rng (hi - lo + 1)
  | Asynchronous { schedule = Some f; _ }
  | Eventually_synchronous { schedule = Some f; _ } ->
      scheduled t f ~round ~src ~dst
  | Asynchronous { schedule = None; _ } | Eventually_synchronous _ ->
      1 + Vv_prelude.Rng.int rng (max_delay t ~round)

(* Probe sweep: exercise a user-supplied schedule over every (round, src,
   dst) the engine could ask about, so an ill-formed schedule is rejected
   when the configuration is built — with the offending point and the
   declared bound named — instead of exploding from [resolve] in the
   middle of a run.  Requires schedules to be pure functions of their
   arguments (they always were in spirit: the engine gives no other
   determinism guarantee). *)
let validate_schedule t ~n ~max_rounds =
  match t with
  | Uniform _
  | Asynchronous { schedule = None; _ }
  | Eventually_synchronous { schedule = None; _ } ->
      ()
  | Asynchronous { schedule = Some f; _ }
  | Eventually_synchronous { schedule = Some f; _ } ->
      for round = 0 to max_rounds - 1 do
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            ignore (scheduled t f ~round ~src ~dst)
          done
        done
      done

let pp ppf = function
  | Uniform { lo; hi } -> Fmt.pf ppf "uniform:%d..%d" lo hi
  | Asynchronous { fairness; _ } -> Fmt.pf ppf "async(fair<=%d)" fairness
  | Eventually_synchronous { gst; bound; _ } ->
      Fmt.pf ppf "gst:%d+<=%d" gst bound
