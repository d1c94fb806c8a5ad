(** Non-blocking line channel shared by {!Server} and {!Replica}: buffered
    line reads plus a bounded outbound queue flushed on writability, so a
    slow or dead peer can never block the daemon's select loop. Every
    syscall retries [EINTR]; EOF and connection errors mark the channel
    dead instead of raising. *)

type t

val of_fd : Unix.file_descr -> t
(** Wrap a connected fd, switching it to non-blocking mode. *)

val fd : t -> Unix.file_descr
val alive : t -> bool

val kill : t -> unit
(** Mark dead without closing; the owning loop closes on its next sweep. *)

val close : t -> unit
(** Mark dead and close the fd (close errors ignored). *)

val unsent : t -> int
(** Outbound bytes still queued. *)

val want_write : t -> bool
(** The loop should select this fd for writability. *)

val enqueue : t -> max_outq:int -> string -> [ `Ok | `Overflow ]
(** Queue one line (newline appended) and opportunistically flush.
    [`Overflow] — and a dead channel — once the unsent queue exceeds
    [max_outq] bytes: the slow-consumer disconnect signal. No-op [`Ok] on
    an already-dead channel. *)

val flush_write : t -> unit
(** Push queued bytes until the kernel pushes back ([EAGAIN]) or the
    queue empties. Call when select reports the fd writable. *)

val read_lines : t -> string list
(** Drain readable bytes and return the complete lines, buffering any
    partial trailing line. [[]] when nothing is available — check
    {!alive} afterwards to distinguish quiet from EOF/error. A partial
    line longer than 1 MiB marks the channel dead: no request or
    decision line comes near it. Linear in the bytes read. *)
