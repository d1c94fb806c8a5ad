(** Sender-side retransmission with capped exponential backoff, in round
    units.

    The simulator is omniscient: it knows at send time when the chaos
    substrate destroyed a delivery (omission, or a partition/outage cut at
    the send or arrival round), which stands in for the ack timeout a real
    sender would run.  Under a policy, each destroyed delivery is re-offered
    to the substrate after a backoff — attempt [k] fires
    [min (base * 2^(k-1), cap)] rounds after attempt [k - 1] — until it
    gets through or [max_attempts] is exhausted.  Duplicate copies injected
    by the substrate are never retransmitted (the original already was).

    Retransmission is off by default ({!Config.make} takes
    [?retransmit:t option] defaulting to [None]), so every existing trace
    stays byte-identical. *)

type t = private {
  base : int;  (** backoff of the first retry, in rounds; >= 1 *)
  cap : int;  (** upper bound on any single backoff, in rounds; >= base *)
  max_attempts : int;  (** retries per delivery (not counting the original) *)
}

val make : ?base:int -> ?cap:int -> ?max_attempts:int -> unit -> t
(** Defaults: [base = 1], [cap = 8], [max_attempts = 5]. Raises
    [Invalid_argument] on [base < 1], [cap < base] or [max_attempts < 1]. *)

val default : t

val backoff : t -> attempt:int -> int
(** Rounds to wait before retry number [attempt] (1-based):
    [min (base * 2^(attempt - 1), cap)]. *)
