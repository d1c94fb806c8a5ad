(** Message delay models — the simulator's synchrony axis.

    A message sent in round [r] arrives at the start of round [r + delay]
    with [delay >= 1]. The three models are the three behaviours of the
    synchrony axis (Tseng, arXiv 1608.07923): synchrony with a known
    bound, no protocol-visible bound at all, and the GST model of partial
    synchrony. *)

type schedule = round:int -> src:Types.node_id -> dst:Types.node_id -> int

type t =
  | Uniform of { lo : int; hi : int }
      (** synchrony with the known bound [delta_t = hi]: each delay is
          drawn uniformly from [\[lo, hi\]], and nothing is drawn when
          [lo = hi] (a fixed delay; {!synchronous} is the paper's
          lock-step model). [lo < hi] staggers arrivals for the
          incremental-threshold protocol (Algorithm 3). *)
  | Asynchronous of { fairness : int; schedule : schedule option }
      (** genuine asynchrony: {!bound} is [None] (protocols see no
          delta_t), delivery order is scheduler-chosen — uniformly random
          without a [schedule], adversary-chosen with one — under the
          fairness cap [1 <= delay <= fairness].  The cap is the liveness
          guarantee that every honest-to-honest message is eventually
          delivered, not a synchrony assumption: honest protocols are not
          told it. *)
  | Eventually_synchronous of { gst : int; bound : int; schedule : schedule option }
      (** the GST model: arbitrary scheduling before the global
          stabilization time — any message sent at round [r < gst] may be
          held back, but must arrive by [gst + bound] — and bounded delay
          ([<= bound]) from [gst] on.  Without a [schedule], delays are
          drawn uniformly over the admissible range, so pre-GST chaos and
          post-GST stabilization compose deterministically from one engine
          seed.  At [gst = 0] with a [schedule] it is an adversary-chosen
          schedule under a declared bound [delta_t] — the strong
          adversary's message-delaying power under synchrony. *)

val synchronous : t
(** [Uniform { lo = 1; hi = 1 }]: every message arrives the next round.
    One shared value, the default of {!Config.make} and the runner's
    specs. *)

val validate : t -> unit
(** Raises [Invalid_argument] on delays below 1, inverted bounds,
    [fairness < 1], [gst < 0] or a GST [bound < 1]. *)

val validate_schedule : t -> n:int -> max_rounds:int -> unit
(** Probe a user-supplied schedule over every [(round, src, dst)] in
    [\[0, max_rounds) x \[0, n)^2] and raise [Invalid_argument] naming the
    offending triple — and the declared bound it broke — on a delay below
    1 or above {!max_delay}.  {!Config.make} calls this so malformed
    schedules fail at construction instead of mid-run. Schedules must be
    pure functions of their arguments. No-op for the randomized models. *)

val bound : t -> int option
(** The delay upper bound (the paper's [delta_t], in rounds) honest nodes
    may rely on; [None] for [Asynchronous].  For [Eventually_synchronous]
    this is the *eventual* bound that holds from GST on — what a
    partially-synchronous protocol is promised. *)

val max_delay : t -> round:int -> int
(** The largest delay any message sent at [round] can be assigned — the
    engine's clamp for chaos-substrate jitter, so injected reordering
    never breaks the model's own delivery guarantee: [hi] for [Uniform],
    [fairness] for [Asynchronous], and for [Eventually_synchronous]
    [gst + bound - round] before GST (pre-GST messages must still land by
    [gst + bound]) and [bound] after. *)

val resolve :
  t -> Vv_prelude.Rng.t -> round:int -> src:Types.node_id -> dst:Types.node_id -> int

val pp : t Fmt.t
