(* The `vvc serve` daemon loop: a select-based single-threaded server
   multiplexing line-delimited JSON-RPC clients over a Unix or TCP
   socket, feeding one {!Vv_multishot.Engine}.

   Lifecycle of a submission: a [submit] line is parsed, queued on the
   engine (ack carries the assigned position), and after each read burst
   the engine [step]s — every slot that filled up is decided (sharded
   across the engine's [jobs] domains) and its decisions are broadcast to
   every connected client as notifications.  [flush] forces a partial
   slot; [status] reports engine stats; [catchup ~from] replays the
   committed log to one client (how a restarted consumer or a {!Replica}
   follower resynchronises); [shutdown] snapshots and stops the loop.

   Write path: every connection is a {!Chan} — a non-blocking fd with a
   bounded outbound queue flushed when select reports writability — so a
   stalled consumer can never block decision broadcast to anyone else.
   A client whose unsent queue passes [max_outq] bytes is disconnected
   (the slow-consumer policy, counted in the outcome); it can reconnect
   and [catchup] from wherever it left off.

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

type outcome = { height : int; served_clients : int; slow_disconnects : int }

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

let record_line s =
  let body = Json.to_string (Ledger.slot_to_json s) in
  let len = String.length body - 1 in
  Printf.sprintf "%s,\"crc\":%d}\n" (String.sub body 0 len) (crc32 body len)

(* The [crc] field is the record's last, so it follows the last comma. *)
let slot_of_record line =
  let ( let* ) = Result.bind in
  let* j = Json.of_string line in
  let* s = Ledger.slot_of_json j in
  match (j, String.rindex_opt line ',') with
  | Json.Obj fields, Some len
    when List.assoc_opt "crc" fields = Some (Json.Int (crc32 line len)) ->
      Ok s
  | _ -> Error "checksum mismatch"

(* The batch size a header line records, once it matches [cfg] (and
   [?batch], when given). *)
let header_batch ?batch cfg line =
  let ( let* ) = Result.bind in
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      let int key =
        match List.assoc_opt key fields with
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
              List.iter (fun s -> Buffer.add_string buf (record_line s)) fresh;
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
  List.iter
    (fun s -> Buffer.add_string buf (record_line s))
    (Engine.decisions engine);
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

let write_snapshot ?log engine path =
  match (write_log engine path, log) with
  | Error msg, Some f -> f (Printf.sprintf "snapshot write failed: %s" msg)
  | _ -> ()

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

let serve ?batch ?jobs ?snapshot ?log ?(max_outq = default_max_outq) ?sndbuf
    ~listen cfg =
  (* A client that disappears mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let engine =
    match load_engine ?batch ?jobs ~snapshot cfg with
    | Ok e -> e
    | Error msg -> failwith ("Server.serve: cannot load snapshot: " ^ msg)
  in
  let info msg = match log with Some f -> f msg | None -> () in
  info
    (Printf.sprintf "serving n=%d t=%d batch=%d height=%d"
       cfg.Ledger.n cfg.Ledger.t (Engine.batch engine) (Engine.height engine));
  let clients : (Unix.file_descr, Chan.t) Hashtbl.t = Hashtbl.create 64 in
  let served = ref 0 in
  let slow = ref 0 in
  let running = ref true in
  let send ch line =
    match Chan.enqueue ch ~max_outq line with
    | `Ok -> ()
    | `Overflow ->
        incr slow;
        info
          (Printf.sprintf
             "disconnecting slow consumer (%d unsent bytes > %d budget)"
             (Chan.unsent ch) max_outq)
  in
  let broadcast line = Hashtbl.iter (fun _ ch -> send ch line) clients in
  (* Last-gasp flush so responses reach clients that are reading. *)
  let close_all () =
    Hashtbl.iter
      (fun _ ch ->
        Chan.flush_write ch;
        Chan.close ch)
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
          info msg;
          failwith ("Server.serve: " ^ msg));
      List.iter
        (fun s -> broadcast (Rpc.decision ~batch:(Engine.batch engine) s))
        decided
    end
  in
  let handle ch line =
    if String.trim line <> "" then
      match Rpc.parse line with
      | Error msg -> send ch (Rpc.error ~id:Json.Null msg)
      | Ok (Rpc.Submit { id; subject; inputs }) -> (
          match Engine.submit engine ~subject inputs with
          | position ->
              send ch
                (Rpc.submit_ack ~id ~position
                   ~slot:(Engine.slot_of engine position)
                   ~lane:(Engine.lane_of engine position))
          | exception Invalid_argument msg -> send ch (Rpc.error ~id msg))
      | Ok (Rpc.Flush { id }) ->
          let decided = Engine.flush engine in
          commit decided;
          send ch
            (Rpc.result ~id
               (Json.Obj [ ("flushed", Json.Int (List.length decided)) ]))
      | Ok (Rpc.Status { id }) ->
          send ch
            (Rpc.result ~id
               (Rpc.status_json
                  ~extra:[ ("role", Json.String "primary") ]
                  engine))
      | Ok (Rpc.Catchup { id; from }) ->
          let replay = Engine.decisions_from engine from in
          send ch
            (Rpc.result ~id
               (Json.Obj [ ("replaying", Json.Int (List.length replay)) ]));
          List.iter
            (fun s -> send ch (Rpc.decision ~batch:(Engine.batch engine) s))
            replay
      | Ok (Rpc.Shutdown { id }) ->
          send ch
            (Rpc.result ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
          running := false
  in
  let accept () =
    match Unix.accept listen with
    | cfd, _ ->
        (match sndbuf with
        | Some bytes -> (
            try Unix.setsockopt_int cfd Unix.SO_SNDBUF bytes
            with Unix.Unix_error _ -> ())
        | None -> ());
        incr served;
        Hashtbl.replace clients cfd (Chan.of_fd cfd)
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
           _, _) ->
        ()
  in
  while !running do
    let rfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.alive ch then fd :: acc else acc)
        clients [ listen ]
    in
    let wfds =
      Hashtbl.fold
        (fun fd ch acc -> if Chan.want_write ch then fd :: acc else acc)
        clients []
    in
    match Unix.select rfds wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt clients fd with
            | Some ch -> Chan.flush_write ch
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if fd = listen then accept ()
            else
              match Hashtbl.find_opt clients fd with
              | None -> ()
              | Some ch -> List.iter (handle ch) (Chan.read_lines ch))
          readable;
        (* Decide every slot the burst filled, then drop dead clients. *)
        commit (Engine.step engine);
        let dead =
          Hashtbl.fold
            (fun fd ch acc -> if Chan.alive ch then acc else (fd, ch) :: acc)
            clients []
        in
        List.iter
          (fun (fd, ch) ->
            Chan.close ch;
            Hashtbl.remove clients fd)
          dead
  done;
  write_snapshot ?log engine snapshot;
  close_all ();
  info (Printf.sprintf "stopped at height %d" (Engine.height engine));
  {
    height = Engine.height engine;
    served_clients = !served;
    slow_disconnects = !slow;
  }
