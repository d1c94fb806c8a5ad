(** The `vvc serve` daemon: a single-threaded select loop multiplexing
    line-delimited JSON-RPC clients ({!Rpc}) over a Unix or TCP socket,
    feeding one {!Vv_multishot.Engine}. Submissions queue in arrival
    order; filled slots are decided (sharded across the engine's [jobs]
    domains) after every read burst and their decisions broadcast to all
    clients; [flush]/[status]/[catchup]/[shutdown] are served inline.

    Every connection's outbound traffic goes through a bounded
    non-blocking queue ({!Chan}), flushed when select reports the fd
    writable — one stalled consumer can never delay decision broadcast
    to the others. A client whose unsent queue exceeds [max_outq] bytes
    is disconnected (it can reconnect and [catchup]); a catchup replay
    is paced so that it never trips that bound on its own. The loop is
    shared with the follower ({!Replica}): see {!run_loop}. *)

val default_max_outq : int
(** 1 MiB: the per-client unsent-byte budget used when [?max_outq] is
    omitted (here and in {!Replica}). *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket. An existing file at the
    path is probed with a connect first: only a provably stale socket
    (connect refused) is removed; if a live daemon answers, raises
    [Failure] with a clear message instead of stealing its socket. *)

val listen_tcp : ?host:string -> int -> Unix.file_descr
(** Bind and listen on [host:port] (default host 127.0.0.1); port [0]
    picks a free port — recover it with {!bound_port}. *)

val bound_port : Unix.file_descr -> int

val log_src : Logs.src
(** The daemon's log source ["vv.serve"], shared by both roles: Info for
    lifecycle (start, stop, a follower's link up), Warning for slow
    consumers and a follower's lost link, Error for a failed log write. *)

type outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;
      (** clients dropped by the bounded-outbound-queue policy *)
  catchups : int;
      (** a follower's connections to its primary, each one resync; 0 on
          a primary *)
}

(** {1 The decision log}

    The file at [--snapshot] is an append-only decision log. Its first
    line is a header, [{"version":2,"seed":S,"n":N,"t":T,"batch":B}];
    every further line is one committed slot, in position order:
    {!Vv_multishot.Ledger.slot_to_json} plus a last field [crc], the
    CRC-32 of the record's bytes before it. Records are never superseded,
    so the file needs no checkpoint or compaction.

    Torn-tail rule: a record counts once its newline is written and its
    checksum holds. On load, the first record that fails this ends the
    log when no intact record follows it; the file is cut there. Damage
    with an intact record after it is an [Error] naming the damaged
    record's byte offset: committed slots are never dropped silently.

    Flush policy: records are written with [write(2)] and no [fsync]. A
    record survives a crash of the process once written, but not a power
    loss.

    Fail-stop: a daemon that cannot write a burst's records stops
    instead of broadcasting them. Serving them from memory would let a
    restart below those positions give them to other subjects while
    clients and followers keep the old slots. *)

val write_log :
  Vv_multishot.Engine.t -> string option -> (unit, string) result
(** Persist the engine's committed log to the path (no-op on [None]).
    When the file is this engine's log — same header, and its last
    record equal to the engine's slot at that index — only the slots
    after that record are appended, found by reading the file's last few
    KB. A torn tail is cut first, and an append that fails is cut back.
    Otherwise (missing file, another config's log, a log ahead of the
    engine) the whole log is written atomically
    ({!Vv_prelude.Io.write_atomic}). [Error] names the failure; nothing
    is raised. The one write path of the primary and of {!Replica}; both
    stop rather than broadcast slots it could not write. *)

val write_snapshot : Vv_multishot.Engine.t -> string option -> unit
(** {!write_log}, with a failure logged at Error on {!log_src} instead of
    returned. *)

val load_engine :
  ?batch:int ->
  ?jobs:int ->
  snapshot:string option ->
  Vv_multishot.Ledger.config ->
  (Vv_multishot.Engine.t, string) result
(** Build the engine a daemon boots with: a fresh engine when
    [snapshot] is [None] or names no file; otherwise the log's slots
    appended in order through {!Vv_multishot.Engine.append_committed}.
    A torn or damaged last record is dropped and the file truncated to
    the recovered prefix. [Error] — never an exception — on a header
    that disagrees with the config (or with [?batch]) or records a batch
    below 1, damage before the last record, a path that is not a regular
    file, or an I/O failure. Shared with {!Replica}. *)

(** {1 The daemon loop} *)

type role = {
  name : string;  (** ["primary"] or ["follower"]: status [role], logs *)
  submit :
    id:Vv_prelude.Json.t -> subject:int -> Vv_ballot.Option_id.t list -> string;
      (** the response line to a [submit] request *)
  flush : unit -> Vv_multishot.Ledger.slot list;
      (** the slots a [flush] request decides *)
  step : unit -> Vv_multishot.Ledger.slot list;
      (** after every select pass: the slots the pass decided or received *)
  status : unit -> (string * Vv_prelude.Json.t) list;
      (** [status] fields after [role] *)
  upstream : unit -> Chan.t option;
      (** before every select: a further channel to wait on (the
          follower's link to its primary, reconnected when due) *)
  timeout : float;  (** select timeout, seconds *)
}
(** What sets a primary and a follower apart in {!run_loop}. *)

val run_loop :
  ?batch:int ->
  ?jobs:int ->
  ?snapshot:string ->
  max_outq:int ->
  ?sndbuf:int ->
  listen:Unix.file_descr ->
  Vv_multishot.Ledger.config ->
  (Vv_multishot.Engine.t -> role) ->
  outcome
(** The one daemon loop, behind {!serve} and {!Replica.run}. It loads the
    engine ({!load_engine}; [Failure] on [Error]), builds the role from
    it, and selects over the listener, its clients and the role's
    upstream until a [shutdown] request. After every pass it commits
    [role.step ()]: the slots are appended to the log before any is
    broadcast, and a failed write closes every connection and raises
    [Failure] naming it (fail-stop). [status], [catchup], [shutdown] and
    parse errors are answered here; [submit] and [flush] by the role.

    A [catchup ~from] answers [replaying] = the slots in [\[from,
    height)], then streams them from a per-connection cursor: lines are
    queued only while the connection's unsent bytes are at most half of
    [max_outq] (the window), at most a window's worth a pass however fast
    the client reads, refilled after every pass; a refill writes each
    time the unsent bytes pass a multiple of the write chunk ([chunk] in
    server.ml), so the client parses the first lines while later ones
    render. A connection whose cursor is open is selected for writing,
    so its next window follows as soon as its socket takes bytes. The
    connection is left off the broadcast, and its later requests wait,
    until the cursor has queued every committed slot; so a client that
    keeps reading gets the whole replay and then the live stream with no
    gap or repeat, however long the log. The outcome's [catchups] is 0;
    {!Replica.run} fills it. *)

val serve :
  ?batch:int ->
  ?jobs:int ->
  ?snapshot:string ->
  ?max_outq:int ->
  ?sndbuf:int ->
  listen:Unix.file_descr ->
  Vv_multishot.Ledger.config ->
  outcome
(** The primary: {!run_loop} with a role that queues [submit]s on the
    engine and decides every filled slot after each read burst. Runs
    until a [shutdown] request. With [?snapshot], every commit burst
    appends its records to the decision log before any of its decisions
    is broadcast (write before broadcast: no client sees a decision that
    a crash can lose), and an existing log is loaded at startup with
    {!load_engine} so a restarted server resumes at its previous height
    (raises [Failure] when that returns [Error]). A commit whose records
    cannot be written ({!write_log} returns [Error]) stops the server:
    the burst is not broadcast, no further request is served, queued
    responses are flushed, every connection is closed, and [serve]
    raises [Failure] naming the write error. [batch]/[jobs] are
    {!Vv_multishot.Engine.create} parameters; [max_outq] (default
    {!default_max_outq}) bounds each client's unsent bytes before the
    slow-consumer disconnect; [sndbuf] shrinks each accepted socket's
    kernel send buffer (testing/tuning hook). The caller owns [listen]
    (and the socket file, for Unix sockets). *)
