(** Client side of the serve protocol: blocking line-at-a-time
    connections and the load drivers behind `vvc load` and campaigns
    E18–E19. A connection reads and writes through a {!Chan}, with its
    1 MiB line bound. *)

module Json = Vv_prelude.Json
module Oid = Vv_ballot.Option_id
module Ledger = Vv_multishot.Ledger

type conn

val retry_delay : seed:int -> attempt:int -> float
(** The connect-retry pause before retry [attempt] (1-based): capped
    exponential backoff (base 0.05s doubling up to 1s) scaled by a
    deterministic jitter factor in [0.5, 1.0) derived purely from
    [(seed, attempt)] — a pure function, so a client's whole schedule
    replays from its seed while distinct seeds de-synchronize a fleet
    racing a restarting daemon. Raises [Invalid_argument] when
    [attempt < 1]. *)

val connect : ?retry_for:float -> ?retry_seed:int -> Unix.sockaddr -> conn
(** Connect to any socket address, retrying ECONNREFUSED/ENOENT for up
    to [retry_for] seconds (default 0 — fail immediately), pacing
    retries by {!retry_delay} (never sleeping past the deadline). Lets a
    client race a daemon that is still starting up without
    thundering-herding it. [retry_seed] fixes the jitter schedule; the
    default derives it from the process id and address. SIGPIPE is set
    to ignore so a dying server surfaces as EPIPE, not process death. *)

val connect_unix : ?retry_for:float -> ?retry_seed:int -> string -> conn
val connect_tcp : ?retry_for:float -> ?retry_seed:int -> ?host:string -> int -> conn
val close : conn -> unit

val send : conn -> string -> unit
(** Write one line (the newline is appended here), blocking until it is
    all written. Raises [Unix.Unix_error] (EPIPE) if the peer is gone;
    the request and load drivers catch this and surface it as
    [Error]. *)

val recv_line : ?timeout:float -> conn -> string option
(** Next complete line; [None] on EOF, after [timeout] (default 30s) of
    silence, on a connection error (ECONNRESET and friends never escape
    as exceptions), or once a partial line passes 1 MiB. *)

val request :
  ?timeout:float ->
  conn ->
  id:Json.t ->
  meth:string ->
  Json.t ->
  (Json.t, string) result
(** One request/response round-trip. Decision notifications read while
    waiting are dropped; responses carrying a different id are stashed
    on the connection for a later {!wait_response}. A server error
    response surfaces as [Error]. *)

val wait_response : ?timeout:float -> conn -> id:Json.t -> (Json.t, string) result
(** Await the response echoing [id]: checks the connection's stash of
    previously-read responses first, then reads the socket. Well-formed
    responses with a different id are stashed, never discarded. *)

val status : ?timeout:float -> conn -> (Json.t, string) result
(** One-off status query: the daemon's shape (n, t, batch, height, ...)
    as the raw result object. *)

val catchup :
  ?timeout:float -> ?from:int -> conn -> (Ledger.slot list, string) result
(** Replay the daemon's committed log from position [from] (default 0):
    sends a catchup request and reads exactly the advertised number of
    decision lines, in position order. The connection should otherwise
    be idle. *)

type report = {
  submitted : int;
  decisions : Ledger.slot list;  (** in position order, deduplicated *)
  status : Json.t option;  (** the server's final status payload *)
  elapsed : float;
  rate : float;  (** decisions per second of driver wall-clock *)
  errors : string list;  (** error responses the server sent back *)
}

val run_load :
  ?timeout:float ->
  ?shutdown:bool ->
  conns:conn list ->
  (int * Oid.t list) list ->
  (report, string) result
(** Drive a burst of [(subject, inputs)] submissions round-robin across
    [conns], then flush and wait until every position's decision has
    streamed back. Submissions are ack-serialized — submission [k+1] is
    not sent until the ack for [k] arrives — so position assignment (and
    hence the committed ledger) is a pure function of the submission
    list, independent of socket scheduling. With [shutdown] the server
    is asked to stop after the final status read. *)

val run_load_racy :
  ?timeout:float ->
  ?shutdown:bool ->
  conns:conn list ->
  (int * Oid.t list) list ->
  (report, string) result
(** Drive the same burst with every submission in flight at once: all
    requests are fired round-robin without awaiting acks, so the
    kernel's cross-socket scheduling picks the arrival order and with it
    the position assignment. The committed ledger is *not* reproducible
    across runs — only the set of decided subjects is (each accepted
    submission decides exactly once). [report.submitted] counts accepted
    submissions; rejected ones are listed in [report.errors]. *)

val subjects_decided : report -> int list
(** The decided subjects, sorted — the run_load_racy invariant is that
    this equals the sorted submitted subject list. *)
