(* A persistent client connection speaking the serve protocol (text
   framing: one request line; a ["ok N"] or ["error N"] header and N
   bytes of output back), and the lifecycle of one [prefdb serve]
   process.  One-shot requests go through [Shell.Server.request], the
   client [prefdb serve call] uses. *)

exception Dropped of string

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  try go 0 with Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))

let refill c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> raise (Dropped "connection closed by server")
  | n ->
    c.pos <- 0;
    c.len <- n
  | exception Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))

let read_header c =
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= c.len then refill c;
    let ch = Bytes.get c.buf c.pos in
    c.pos <- c.pos + 1;
    if ch = '\n' then Buffer.contents b
    else begin
      Buffer.add_char b ch;
      go ()
    end
  in
  go ()

let read_body c n =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      if c.pos >= c.len then refill c;
      let k = min (n - off) (c.len - c.pos) in
      Bytes.blit c.buf c.pos out off k;
      c.pos <- c.pos + k;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

(* One round trip: [(ok, output)]; [Dropped] when the connection fails. *)
let call c line =
  send c line;
  let header = read_header c in
  match String.split_on_char ' ' header with
  | [ status; len ] -> (
    match int_of_string_opt len with
    | Some n when n >= 0 && (status = "ok" || status = "error") ->
      (status = "ok", read_body c n)
    | _ -> raise (Dropped ("malformed header " ^ header)))
  | _ -> raise (Dropped ("malformed header " ^ header))

(* --- the server process -------------------------------------------------- *)

type server = { pid : int; dir : string; sock : string }

let spawn ~prefdb dir =
  let log = Unix.openfile (Shell.Server.log_path dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process prefdb [| prefdb; "serve"; "--dir"; dir |] Unix.stdin log log)
  in
  { pid; dir; sock = Shell.Server.socket_path dir }

let alive s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Block until the server answers [ping] (the store is loaded and the
   socket bound).  A server that exits first, or never answers, is fatal. *)
let await s ~timeout =
  let deadline = Util.now () +. timeout in
  while not (Shell.Server.ping s.dir) do
    if not (alive s) then
      failwith (Printf.sprintf "server exited during start (see %s)" (Shell.Server.log_path s.dir));
    if Util.now () > deadline then failwith "server did not answer ping in time";
    Unix.sleepf 0.001
  done

(* Peak resident set of the server, from the kernel (kB -> MB). *)
let peak_rss_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      Float.nan (String.split_on_char '\n' text)

(* Graceful [shutdown], then reap; SIGKILL if the server does not exit.
   Leaves neither socket nor pid file behind. *)
let stop s =
  ignore (Shell.Server.request s.dir "shutdown");
  let deadline = Util.now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ s.sock; Shell.Server.pid_path s.dir ]
