(** The follower daemon (`vvc serve --follow ADDR`): connects to a
    primary {!Server} with retry, resyncs via [catchup] from its own
    snapshot height, applies the primary's decision stream to a local
    committed log ({!Vv_multishot.Engine.append_committed}), and serves
    read-only [status]/[catchup] to its own clients over the same
    {!Rpc} protocol. [submit] is refused; [flush] is a no-op. It runs
    the primary's loop ({!Server.run_loop}) with a follower role.

    When the primary dies, the follower keeps serving reads and probes
    the primary address every [retry_every] seconds; after the primary
    restarts from its snapshot, the follower re-catches-up from the
    height it reached, converging to a log byte-identical to the
    primary's (pinned by campaign E19). *)

type outcome = Server.outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;  (** this follower's own clients dropped *)
  catchups : int;  (** successful primary connections, each one resync *)
}

val run :
  ?batch:int ->
  ?jobs:int ->
  ?snapshot:string ->
  ?max_outq:int ->
  ?retry_every:float ->
  primary:Unix.sockaddr ->
  listen:Unix.file_descr ->
  Vv_multishot.Ledger.config ->
  outcome
(** Run until a [shutdown] request from a client. [cfg]/[batch] must
    match the primary's (the log header enforces this across restarts).
    With [?snapshot] the replicated log is the same append-only decision
    log as the primary's ({!Server.write_log}): each upstream read
    appends its applied slots before they are relayed to this follower's
    clients, so a relayed decision is never one a crash can lose, and an
    existing log seeds the resync height at boot ({!Server.load_engine},
    torn tail dropped). As on the primary, a read whose slots cannot be
    written stops the follower without relaying them; [run] then raises
    [Failure] naming the write error. [retry_every] (default 0.25 s)
    paces reconnection probes; [max_outq] is the {!Server.serve}
    slow-consumer bound for this follower's own clients. The caller owns
    [listen]. *)
