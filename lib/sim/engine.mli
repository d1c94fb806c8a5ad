(** Deterministic round-based execution engine.

    Executes a {!Protocol.S} state machine on every honest (and
    not-yet-crashed) node, delivers messages according to the configured
    delay model, applies the crash filter of {!Fault}, and hands a rushing
    full-information adversary this round's honest traffic before letting it
    inject Byzantine messages. The engine validates adversary output against
    the communication model: equivocation or partial broadcast under
    {!Types.Local_broadcast} is an invalid adversary (this is the
    restriction behind Property 6).

    Every run additionally produces an immutable {!Trace.snapshot} with
    per-round send counts, adversary injections, per-node phase transitions
    and decide rounds. *)

exception Invalid_adversary of string

module Make (P : Protocol.S) : sig
  type result = {
    config : Config.t;
    outputs : P.output option array;
        (** indexed by node id; Byzantine slots stay [None] *)
    decision_round : int option array;
        (** 0-based index of the round each node decided in *)
    rounds_used : int;
        (** number of rounds executed (round indices 0 .. [rounds_used] - 1);
            equals the trace's [total_rounds], at most [Config.max_rounds],
            and exactly [max_rounds] on stalled runs *)
    trace : Trace.snapshot;
    stalled : bool;
        (** true when [max_rounds] elapsed with undecided honest nodes — an
            admissible outcome for safety-guaranteed protocols (Def. V.1) *)
  }

  val honest_outputs : result -> P.output option list
  (** Outputs of the honest nodes, in node-id order. *)

  val run :
    Config.t ->
    inputs:(Types.node_id -> P.input) ->
    ?adversary:P.msg Adversary.t ->
    unit ->
    (result, [ `Invalid_adversary of string ]) Stdlib.result
  (** Runs to decision or [max_rounds]. [inputs] is consulted for honest and
      crash-faulty nodes (Byzantine inputs are the adversary's business).
      An adversary violating the fault plan or the communication model
      yields [Error (`Invalid_adversary reason)] instead of raising — the
      form batch executors want. *)

  val run_exn :
    Config.t ->
    inputs:(Types.node_id -> P.input) ->
    ?adversary:P.msg Adversary.t ->
    unit ->
    result
  (** Same, but raises {!Invalid_adversary} — the original behaviour, kept
      for interactive callers and tests that assert on the exception. *)

  type checkpoint
  (** A run stopped after the honest steps of one round, before the
      adversary observed them.  Never modified: {!resume} works on a
      copy. *)

  type prefix =
    | Paused of checkpoint
    | Finished of result
        (** the run ended before the pause predicate ever held *)

  val run_prefix :
    Config.t ->
    inputs:(Types.node_id -> P.input) ->
    copy:(P.state -> P.state) ->
    ?adversary:P.msg Adversary.t ->
    pause:(P.msg Adversary.view -> bool) ->
    unit ->
    (prefix, [ `Invalid_adversary of string ]) Stdlib.result
  (** Runs like {!run}, but after the honest steps of each round evaluates
      [pause] on the round's view ([round], [sent_len] and the send
      accessors are current) and stops at the first round where it holds.
      [copy] must return a state independent of its argument: {!resume}
      applies it to every node state a later round can still write. *)

  val resume :
    checkpoint ->
    ?adversary:P.msg Adversary.t ->
    ?pause:(P.msg Adversary.view -> bool) ->
    unit ->
    (prefix, [ `Invalid_adversary of string ]) Stdlib.result
  (** Continues a copy of the checkpoint against [adversary], starting
      with its observation of the paused round's honest sends.  Without
      [pause] the copy runs to the end and the answer is [Finished]:
      equal to {!run} (trace included, under [adversary]'s name) against
      an adversary that behaves like the prefix's up to the pause and
      like [adversary] from then on.  With [pause] the copy stops as
      {!run_prefix} does, after the honest steps of the first later round
      where [pause] holds, and the new checkpoint can be resumed in turn.
      The checkpoint itself is never written: callable any number of
      times. *)
end
