(* The `vvc serve` daemon loop: a select-based single-threaded server
   multiplexing line-delimited JSON-RPC clients over a Unix or TCP
   socket, feeding one {!Vv_multishot.Engine}.  [run_loop] is the only
   loop: the primary ([serve]) and the follower ({!Replica.run}) are two
   [role]s in it.

   Lifecycle of a submission: a [submit] line is parsed, queued on the
   engine (ack carries the assigned position), and after each read burst
   (a pass reads each readable connection 4 KiB at a time, up to 64 KiB)
   the engine [step]s — every slot that filled up is decided (sharded
   across the engine's [jobs] domains) and its decisions are broadcast to
   every connected client as notifications.  [flush] forces a partial
   slot; [status] reports engine stats; [catchup ~from] replays the
   committed log to one client from a cursor, a window at a time (how a
   restarted consumer or a {!Replica} follower resynchronises);
   [shutdown] snapshots and stops the loop.

   Write path: every connection is a {!Chan} — a non-blocking fd whose
   responses and decisions are appended to its unsent bytes without a
   syscall.  At the end of each pass of the select loop every connection
   with unsent bytes gets one write for all of them (and a connection
   select reports writable is flushed at the pass's start), so a
   stalled consumer can never block decision broadcast to anyone else.
   A client whose unsent bytes still pass [max_outq] after that write is
   disconnected (the slow-consumer policy, counted in the outcome); it
   can reconnect and [catchup] from wherever it left off.

   Durability: with [?snapshot] the committed log lives in an
   append-only decision log — a header line, then one record per slot.
   Each commit burst appends its new records before any of its decisions
   is broadcast, so no client sees a decision a crash can lose; the file
   is rewritten whole (atomically, {!Vv_prelude.Io.write_atomic}) only
   when it is missing or is not this engine's log.  At startup the log is
   read back, a torn or damaged last record is dropped, and the server
   resumes at the recovered height.  Records are written without fsync:
   they survive a process crash, not a power loss.  A burst that cannot
   be written stops the daemon (fail-stop) before it is broadcast.
   Pending submissions are never logged — unacknowledged-by-decision
   traffic is the clients' to resubmit.

   The loop is deliberately single-threaded: determinism comes from the
   engine (positions in arrival order, slot computation pure), and the
   protocol work itself is what parallelises — across the engine's worker
   domains, not across request handlers. *)

module Json = Vv_prelude.Json
module Io = Vv_prelude.Io
module Ledger = Vv_multishot.Ledger
module Engine = Vv_multishot.Engine

let default_max_outq = 1 lsl 20

(* --- listeners --- *)

(* An existing file at [path] is only removed when it is provably a stale
   socket (connect refused); a live daemon's socket must not be stolen
   out from under it. *)
let listen_unix path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        failwith
          (Printf.sprintf
             "%s: a live daemon is already listening on this socket; stop \
              it first or choose another path"
             path)
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        Unix.close probe;
        Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Unix.close probe
    | exception e ->
        Unix.close probe;
        raise e
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ?(host = "127.0.0.1") port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.bound_port: unix socket"

(* --- the serve loop --- *)

let log_src = Logs.Src.create "vv.serve" ~doc:"serve daemon: primary and follower"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  height : int;
  served_clients : int;
  slow_disconnects : int;
  catchups : int;
}

(* --- the decision log --- *)

(* The file at [--snapshot] is an append-only decision log: a header line
   echoing the configuration, then one record line per committed slot in
   position order.  A record is {!Ledger.slot_to_json} with one more,
   last field, [crc]: the CRC-32 of the record's bytes before that field,
   so a damaged record is caught even where it still parses. *)

let log_version = 2

let header_line engine =
  let cfg = Engine.config engine in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Int log_version);
         ("seed", Json.Int cfg.Ledger.seed);
         ("n", Json.Int cfg.Ledger.n);
         ("t", Json.Int cfg.Ledger.t);
         ("batch", Json.Int (Engine.batch engine));
       ])
  ^ "\n"

(* CRC-32 (IEEE 802.3, reflected). *)
let crc_table =
  Array.init 256 (fun byte ->
      let c = ref byte in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The CRC of the first [len] bytes of [s]. *)
let crc32 s len =
  let c = ref 0xFFFFFFFF in
  for i = 0 to len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let add_record buf s =
  let body = Json.to_string (Ledger.slot_to_json s) in
  let len = String.length body - 1 in
  Buffer.add_substring buf body 0 len;
  Buffer.add_string buf ",\"crc\":";
  Buffer.add_string buf (string_of_int (crc32 body len));
  Buffer.add_string buf "}\n"

(* The [crc] field is the record's last, so it follows the last comma. *)
let slot_of_record line =
  match Json.of_string line with
  | Error msg -> Error msg
  | Ok j -> (
      match (Ledger.slot_of_json j, j) with
      | Error msg, _ -> Error msg
      | Ok s, Json.Obj fields -> (
          match (Json.member "crc" fields, String.rindex_opt line ',') with
          | Some (Json.Int crc), Some len when crc = crc32 line len -> Ok s
          | _ -> Error "checksum mismatch")
      | Ok _, _ -> Error "checksum mismatch")

(* The batch size a header line records, once it matches [cfg] (and
   [?batch], when given). *)
let header_batch ?batch cfg line =
  let ( let* ) = Result.bind in
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      let int key =
        match Json.member key fields with
        | Some (Json.Int i) -> Ok i
        | _ -> Error (Printf.sprintf "header: missing int field %S" key)
      in
      let* version = int "version" in
      let* () =
        if version = log_version then Ok ()
        else Error (Printf.sprintf "header: unsupported version %d" version)
      in
      let check key actual =
        let* recorded = int key in
        if recorded = actual then Ok ()
        else
          Error
            (Printf.sprintf "header: %s mismatch (log %d, config %d)" key
               recorded actual)
      in
      let* () = check "seed" cfg.Ledger.seed in
      let* () = check "n" cfg.Ledger.n in
      let* () = check "t" cfg.Ledger.t in
      let* recorded = int "batch" in
      let* () =
        match batch with Some b -> check "batch" b | None -> Ok ()
      in
      Ok recorded
  | Ok _ -> Error "header: expected an object"
  | Error msg -> Error ("header: " ^ msg)

(* How much of the file's end an append reads to find its last record:
   records are ~130 bytes, so a few KB always holds the last one whole. *)
let tail_window = 4096

(* Append the engine's slots after the file's last record; [false] when
   the file is missing or is not this engine's log (its header differs,
   or its last record is not the engine's slot at that index), and must
   be rewritten whole.  Bytes after the last newline are a torn append
   and are cut first; a failed append is cut back, so no record ever
   follows a torn one. *)
let append_log engine path =
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  | fd ->
      Fun.protect ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* One read: a regular file reads short only past its end. *)
      let read_at ofs len =
        let buf = Bytes.create len in
        ignore (Unix.lseek fd ofs Unix.SEEK_SET);
        if Unix.read fd buf 0 len < len then raise End_of_file;
        Bytes.to_string buf
      in
      let header = header_line engine in
      let hlen = String.length header in
      let size = (Unix.fstat fd).Unix.st_size in
      if size < hlen || read_at 0 hlen <> header then false
      else
        (* The window ends the file and never starts inside the header. *)
        let from = max hlen (size - tail_window) in
        let tail = read_at from (size - from) in
        (* [Some (valid, height)]: the file's first [valid] bytes are the
           header and this engine's first [height] records. *)
        let intact =
          match String.rindex_opt tail '\n' with
          | None -> if from = hlen then Some (hlen, 0) else None
          | Some nl -> (
              let start =
                match String.rindex_from_opt tail (nl - 1) '\n' with
                | Some i -> Some (i + 1)
                | None -> if from = hlen then Some 0 else None
              in
              let record =
                Option.map
                  (fun i -> slot_of_record (String.sub tail i (nl - i)))
                  start
              in
              match record with
              | Some (Ok s) -> (
                  let index = s.Ledger.index in
                  match Engine.decisions_from engine index with
                  | s' :: _ when s' = s -> Some (from + nl + 1, index + 1)
                  | _ -> None)
              | _ -> None)
        in
        match intact with
        | None -> false
        | Some (valid, height) ->
            if valid < size then Unix.ftruncate fd valid;
            let fresh = Engine.decisions_from engine height in
            if fresh <> [] then begin
              let buf = Buffer.create (160 * List.length fresh) in
              List.iter (add_record buf) fresh;
              ignore (Unix.lseek fd valid Unix.SEEK_SET);
              try
                ignore
                  (Unix.write_substring fd (Buffer.contents buf) 0
                     (Buffer.length buf))
              with Unix.Unix_error _ as e ->
                (try Unix.ftruncate fd valid with Unix.Unix_error _ -> ());
                raise e
            end;
            true

let render_log engine =
  let buf = Buffer.create (4096 + (160 * Engine.height engine)) in
  Buffer.add_string buf (header_line engine);
  List.iter (add_record buf) (Engine.decisions engine);
  Buffer.contents buf

let write_log engine = function
  | None -> Ok ()
  | Some path -> (
      match append_log engine path with
      | true -> Ok ()
      | false -> Io.write_atomic ~path (render_log engine)
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))
      | exception End_of_file -> Error (path ^ ": shrank while being read"))

let write_snapshot engine path =
  match write_log engine path with
  | Error msg -> Log.err (fun m -> m "snapshot write failed: %s" msg)
  | Ok () -> ()

(* Rebuild the engine from an open log.  Records count once their
   newline is written; the first record that is torn or damaged ends the
   log, provided no intact record follows it — that tail is dropped and
   the file cut to the last intact record.  Damage with intact records
   after it is an [Error] naming its byte offset. *)
let read_log ?batch ?jobs cfg path ic =
  let ( let* ) = Result.bind in
  let next_line () =
    let start = pos_in ic in
    match In_channel.input_line ic with
    | None -> None
    | Some line -> Some (start, line, pos_in ic - start > String.length line)
  in
  let rec intact_follows () =
    match next_line () with
    | None -> false
    | Some (_, line, terminated) ->
        (terminated && Result.is_ok (slot_of_record line)) || intact_follows ()
  in
  let* batch =
    match next_line () with
    | Some (_, line, true) -> header_batch ?batch cfg line
    | _ -> Error "no header line"
  in
  let engine = Engine.create ~batch ?jobs cfg in
  let rec records () =
    match next_line () with
    | None -> Ok ()
    | Some (start, line, terminated) -> (
        let decoded =
          if terminated then slot_of_record line else Error "torn"
        in
        match decoded with
        | Ok s -> (
            match Engine.append_committed engine s with
            | Ok `Applied -> records ()
            | Ok `Stale ->
                Error
                  (Printf.sprintf "record at byte %d repeats position %d" start
                     s.Ledger.index)
            | Error msg ->
                Error (Printf.sprintf "record at byte %d: %s" start msg))
        | Error msg ->
            if intact_follows () then
              Error
                (Printf.sprintf
                   "record at byte %d is damaged (%s) and intact records \
                    follow it"
                   start msg)
            else begin
              Unix.truncate path start;
              Ok ()
            end)
  in
  let* () = records () in
  Ok engine

let load_engine ?batch ?jobs ~snapshot cfg =
  match snapshot with
  | None -> Ok (Engine.create ?batch ?jobs cfg)
  | Some path -> (
      let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
      match Unix.stat path with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
          Ok (Engine.create ?batch ?jobs cfg)
      | { Unix.st_kind = Unix.S_REG; _ } -> (
          match
            In_channel.with_open_bin path (read_log ?batch ?jobs cfg path)
          with
          | Ok engine -> Ok engine
          | Error msg -> fail msg
          | exception Sys_error msg -> fail msg
          | exception Unix.Unix_error (e, fn, _) ->
              fail (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
      | _ -> fail "not a regular file"
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))

(* What sets a primary and a follower apart; the rest is [run_loop]. *)
type role = {
  name : string;
  submit : id:Json.t -> subject:int -> Vv_ballot.Option_id.t list -> string;
  flush : unit -> Ledger.slot list;
  step : unit -> Ledger.slot list;
  status : unit -> (string * Json.t) list;
  upstream : unit -> Chan.t option;
  timeout : float;
}

(* One connection.  While a catchup replays, [replay] holds the slots it
   has still to queue (then every slot committed since); the connection
   is off the broadcast, and requests read behind the catchup wait in
   [held]. *)
type client = {
  chan : Chan.t;
  mutable replay : Ledger.slot list option;
  mutable held : string list;
}

let run_loop ?batch ?jobs ?snapshot ~max_outq ?sndbuf ~listen cfg make_role =
  (* A client that disappears mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let engine =
    match load_engine ?batch ?jobs ~snapshot cfg with
    | Ok e -> e
    | Error msg -> failwith ("cannot load snapshot: " ^ msg)
  in
  let role = make_role engine in
  let batch = Engine.batch engine in
  Log.info (fun m ->
      m "%s serving n=%d t=%d batch=%d height=%d" role.name cfg.Ledger.n
        cfg.Ledger.t batch (Engine.height engine));
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 64 in
  let upstream = ref None in
  let served = ref 0 in
  let slow = ref 0 in
  let running = ref true in
  (* A replay queues lines only while its connection's unsent bytes are
     within half the budget, so a reading client never overflows on its
     own catchup. *)
  let window = max_outq / 2 in
  (* The pass's one write; a client whose unsent bytes still exceed the
     budget after it is a slow consumer. *)
  let flush c =
    if Chan.want_write c.chan then begin
      Chan.flush_write c.chan;
      if Chan.unsent c.chan > max_outq then begin
        Chan.kill c.chan;
        incr slow;
        Log.warn (fun m ->
            m "disconnecting slow consumer (%d unsent bytes > %d budget)"
              (Chan.unsent c.chan) max_outq)
      end
    end
  in
  let broadcast line =
    Hashtbl.iter
      (fun _ c -> if Option.is_none c.replay then Chan.enqueue c.chan line)
      clients
  in
  (* Last-gasp flush so responses reach clients that are reading. *)
  let close_all () =
    Option.iter Chan.close !upstream;
    Hashtbl.iter
      (fun _ c ->
        Chan.flush_write c.chan;
        Chan.close c.chan)
      clients
  in
  (* Write before broadcast: no client sees a decision a crash can lose.
     A failed write stops the daemon there, so the unwritten slots are
     neither broadcast nor served by a later catchup. *)
  let commit decided =
    if decided <> [] then begin
      (match write_log engine snapshot with
      | Ok () -> ()
      | Error msg ->
          close_all ();
          let msg = "decision log write failed, stopping: " ^ msg in
          Log.err (fun m -> m "%s" msg);
          failwith (role.name ^ ": " ^ msg));
      List.iter (fun s -> broadcast (Rpc.decision ~batch s)) decided
    end
  in
  let rec handle c line =
    if String.trim line <> "" then
      match Rpc.parse line with
      | Error msg -> Chan.enqueue c.chan (Rpc.error ~id:Json.Null msg)
      | Ok (Rpc.Submit { id; subject; inputs }) ->
          Chan.enqueue c.chan (role.submit ~id ~subject inputs)
      | Ok (Rpc.Flush { id }) ->
          let decided = role.flush () in
          commit decided;
          Chan.enqueue c.chan
            (Rpc.result ~id
               (Json.Obj [ ("flushed", Json.Int (List.length decided)) ]))
      | Ok (Rpc.Status { id }) ->
          let extra = ("role", Json.String role.name) :: role.status () in
          Chan.enqueue c.chan (Rpc.result ~id (Rpc.status_json ~extra engine))
      | Ok (Rpc.Catchup { id; from }) ->
          let replay = Engine.decisions_from engine from in
          Chan.enqueue c.chan
            (Rpc.result ~id
               (Json.Obj [ ("replaying", Json.Int (List.length replay)) ]));
          c.replay <- Some replay;
          refill c
      | Ok (Rpc.Shutdown { id }) ->
          Chan.enqueue c.chan
            (Rpc.result ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
          running := false
  and handle_lines c = function
    | [] -> ()
    | line :: rest when Option.is_none c.replay ->
        handle c line;
        handle_lines c rest
    | lines -> c.held <- lines
  (* Queue replay lines within the window.  The cursor closes only once
     it has queued every committed slot, so replay and broadcast form one
     gapless sequence; then the held requests are handled. *)
  and refill c =
    match c.replay with
    | Some (s :: rest) when Chan.alive c.chan && Chan.unsent c.chan <= window
      ->
        Chan.enqueue c.chan (Rpc.decision ~batch s);
        c.replay <-
          Some
            (if rest = [] then Engine.decisions_from engine (s.Ledger.index + 1)
             else rest);
        refill c
    | Some [] ->
        let held = c.held in
        c.replay <- None;
        c.held <- [];
        handle_lines c held
    | Some _ | None -> ()
  in
  let accept () =
    match Unix.accept listen with
    | cfd, _ ->
        Option.iter
          (fun bytes ->
            try Unix.setsockopt_int cfd Unix.SO_SNDBUF bytes
            with Unix.Unix_error _ -> ())
          sndbuf;
        incr served;
        Hashtbl.replace clients cfd
          { chan = Chan.of_fd cfd; replay = None; held = [] }
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
           _, _) ->
        ()
  in
  while !running do
    upstream := role.upstream ();
    let up_fd want =
      match !upstream with Some ch when want ch -> [ Chan.fd ch ] | _ -> []
    in
    (* A replaying connection is not read: its requests wait their turn. *)
    let rfds =
      Hashtbl.fold
        (fun fd c acc ->
          if Chan.alive c.chan && Option.is_none c.replay then fd :: acc
          else acc)
        clients
        (listen :: up_fd Chan.alive)
    in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if Chan.want_write c.chan then fd :: acc else acc)
        clients (up_fd Chan.want_write)
    in
    match Unix.select rfds wfds [] role.timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match (Hashtbl.find_opt clients fd, !upstream) with
            | Some c, _ -> Chan.flush_write c.chan
            | None, Some ch when Chan.fd ch = fd -> Chan.flush_write ch
            | None, _ -> ())
          writable;
        (* The upstream, if any, is read by the role's [step]. *)
        List.iter
          (fun fd ->
            if fd = listen then accept ()
            else
              match Hashtbl.find_opt clients fd with
              | Some c -> handle_lines c (Chan.read_lines c.chan)
              | None -> ())
          readable;
        (* Commit what the pass decided and refill every open replay;
           then one write per connection, and dead clients are dropped. *)
        commit (role.step ());
        Hashtbl.iter (fun _ c -> refill c) clients;
        Option.iter Chan.flush_write !upstream;
        Hashtbl.iter (fun _ c -> flush c) clients;
        let dead =
          Hashtbl.fold
            (fun fd c acc -> if Chan.alive c.chan then acc else (fd, c) :: acc)
            clients []
        in
        List.iter
          (fun (fd, c) ->
            Chan.close c.chan;
            Hashtbl.remove clients fd)
          dead
  done;
  write_snapshot engine snapshot;
  close_all ();
  Log.info (fun m ->
      m "%s stopped at height %d" role.name (Engine.height engine));
  {
    height = Engine.height engine;
    served_clients = !served;
    slow_disconnects = !slow;
    catchups = 0;
  }

let serve ?batch ?jobs ?snapshot ?(max_outq = default_max_outq) ?sndbuf
    ~listen cfg =
  run_loop ?batch ?jobs ?snapshot ~max_outq ?sndbuf ~listen cfg (fun engine ->
      {
        name = "primary";
        submit =
          (fun ~id ~subject inputs ->
            match Engine.submit engine ~subject inputs with
            | position ->
                Rpc.submit_ack ~id ~position
                  ~slot:(Engine.slot_of engine position)
                  ~lane:(Engine.lane_of engine position)
            | exception Invalid_argument msg -> Rpc.error ~id msg);
        flush = (fun () -> Engine.flush engine);
        step = (fun () -> Engine.step engine);
        status = (fun () -> []);
        upstream = (fun () -> None);
        timeout = 1.0;
      })
