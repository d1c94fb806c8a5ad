(** Non-blocking line channel shared by {!Server} and {!Replica}: buffered
    line reads plus an outbound buffer that the owning loop flushes with
    one [write] per pass and on writability, so a slow or dead peer can
    never block the daemon's select loop. Every syscall retries [EINTR];
    EOF and connection errors mark the channel dead instead of
    raising. *)

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
(** Outbound bytes not yet written: what the owning loop's slow-consumer
    policy bounds. *)

val want_write : t -> bool
(** The loop should select this fd for writability. *)

val enqueue : t -> string -> unit
(** Append one line and its newline to the unsent bytes. No syscall:
    {!flush_write} sends them. No-op on a dead channel. *)

val flush_write : t -> unit
(** Hand every unsent byte to one [write] (OCaml's [Unix] copies at most
    64 KiB a call; the rest waits for the next call). Call once per loop
    pass and when select reports the fd writable. A drained buffer that
    grew returns to its initial 4 KiB. *)

val read_lines : t -> string list
(** Read the available bytes and return the complete lines, buffering
    any partial trailing line. Reads into a 4 KiB buffer, again while a
    read fills it, at most 16 times: a short request costs one read, a
    backlog up to 64 KiB a call. [[]] when nothing is available — check
    {!alive} afterwards to distinguish quiet from EOF/error. A partial
    line longer than 1 MiB marks the channel dead: no request or
    decision line comes near it. Linear in the bytes read. *)
