(* Small helpers: sample statistics, growable vectors, files. *)

external now_ns : unit -> (int64[@unboxed]) = "servebench_now_ns_byte" "servebench_now_ns"
[@@noalloc]

(* Seconds on a monotonic clock with nanosecond steps. *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Samples beyond quantile [q] in a sample of [n]: how many a reported
   percentile rests on. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 1024 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* Overwrites [dst] in place and syncs it.  The copy is made before any
   timing starts; syncing it keeps its writeback out of the first fsync
   the server makes, and overwriting rather than deleting and
   re-creating frees no blocks for the file system to discard under a
   later fsync. *)
let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  let fd = Unix.openfile dst [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length data in
      let rec go off = if off < n then go (off + Unix.write_substring fd data off (n - off)) in
      go 0;
      Unix.ftruncate fd n;
      Unix.fsync fd)

(* A store directory is its snapshot and its log; nothing else is
   copied, so every server starts on pristine state. *)
let copy_store src dst =
  mkdir_p dst;
  copy_file (Dbio.Store.snapshot_path src) (Dbio.Store.snapshot_path dst);
  copy_file (Dbio.Store.wal_path src) (Dbio.Store.wal_path dst)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Every digit of the measured value. *)
let num f = Printf.sprintf "%.17g" f

let first_line s =
  match String.index_opt s '\n' with None -> s | Some i -> String.sub s 0 i
