(* A non-blocking line channel: the per-connection plumbing shared by the
   serve daemon ({!Server}) and the follower daemon ({!Replica}).

   Inbound: [read_lines] drains whatever the kernel has buffered and
   returns the complete lines, keeping a partial trailing line for the
   next call; a partial line past [max_line] marks the channel dead.
   Outbound: [enqueue] appends one line to a FIFO of unsent payloads and
   opportunistically flushes; the select loop retries
   [flush_write] whenever the fd turns writable.  Writes therefore never
   block the daemon — a consumer that stops reading only grows its own
   queue, and [enqueue] reports [`Overflow] once the queue passes the
   caller's bound so the loop can apply its slow-consumer policy.

   Every syscall retries [EINTR], treats [EAGAIN]/[EWOULDBLOCK] as "no
   progress", and marks the channel dead on any other [Unix_error] (or on
   EOF) instead of raising — a dying peer must never crash the loop. *)

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  scratch : Bytes.t;  (* per-channel read buffer: channels cross domains *)
  outq : string Queue.t;  (* unsent payloads, each ending in '\n' *)
  mutable out_ofs : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;  (* total unsent bytes across the queue *)
  mutable alive : bool;
}

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 256;
    scratch = Bytes.create 65536;
    outq = Queue.create ();
    out_ofs = 0;
    out_bytes = 0;
    alive = true;
  }

let fd t = t.fd
let alive t = t.alive
let kill t = t.alive <- false
let unsent t = t.out_bytes
let want_write t = t.alive && t.out_bytes > 0

let close t =
  t.alive <- false;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec flush_write t =
  if t.alive && not (Queue.is_empty t.outq) then
    let head = Queue.peek t.outq in
    let len = String.length head - t.out_ofs in
    match Unix.single_write_substring t.fd head t.out_ofs len with
    | written ->
        t.out_bytes <- t.out_bytes - written;
        if written = len then begin
          ignore (Queue.pop t.outq);
          t.out_ofs <- 0;
          flush_write t
        end
        else t.out_ofs <- t.out_ofs + written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_write t
    | exception Unix.Unix_error (_, _, _) -> t.alive <- false

let enqueue t ~max_outq line =
  if not t.alive then `Ok
  else begin
    let payload = line ^ "\n" in
    Queue.push payload t.outq;
    t.out_bytes <- t.out_bytes + String.length payload;
    flush_write t;
    if t.out_bytes > max_outq then begin
      t.alive <- false;
      `Overflow
    end
    else `Ok
  end

let rec read_available t =
  match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      t.alive <- false;
      0
  | len -> len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_available t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (_, _, _) ->
      t.alive <- false;
      0

(* The longest partial line a channel buffers: request and decision lines
   are a few hundred bytes, so a peer past this is marked dead. *)
let max_line = 1 lsl 20

(* Only the bytes just read are scanned, so a long line costs time linear
   in its length. *)
let read_lines t =
  if not t.alive then []
  else begin
    let len = read_available t in
    let lines = ref [] and start = ref 0 in
    for i = 0 to len - 1 do
      if Bytes.get t.scratch i = '\n' then begin
        Buffer.add_subbytes t.inbuf t.scratch !start (i - !start);
        lines := Buffer.contents t.inbuf :: !lines;
        Buffer.clear t.inbuf;
        start := i + 1
      end
    done;
    Buffer.add_subbytes t.inbuf t.scratch !start (len - !start);
    if Buffer.length t.inbuf > max_line then t.alive <- false;
    List.rev !lines
  end
