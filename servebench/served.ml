(* The untraced, end-to-end half of a run: start [prefdb serve] on a
   fresh copy of the store, warm it with one request of every shape, and
   drive the closed-loop script at it for the timed window. *)

type setup = { server : Wire.server; seconds : float }

type window = {
  elapsed : float;  (* end of the settle period to the last reply *)
  idx : int array;  (* script index of each completed request *)
  lat_us : float array;  (* client-side latency, connect included *)
  ok : bool array;  (* acknowledged and answered as expected *)
  errors : string list;  (* the first few mismatches, for the log *)
  settle_requests : int;  (* untimed requests before the window, checked too *)
  writes : int;  (* acknowledged writes, settle period included *)
  settle_failed : int;
}

let check (r : Mix.req) (ok, out) = ok && Mix.check r out

(* From spawn until every shape has been answered once: snapshot load,
   engine build and the lazy work the first request of each shape pays.
   Warm-up answers are checked like every other response; a wrong one
   is fatal. *)
let setup ~prefdb ~pristine ~dir (w : Mix.t) =
  Util.copy_store pristine dir;
  let t0 = Util.now () in
  let server = Wire.spawn ~prefdb dir in
  Wire.await server ~timeout:120.0;
  let c = Wire.connect server.sock in
  Fun.protect
    ~finally:(fun () -> Wire.close c)
    (fun () ->
      List.iter
        (fun (r : Mix.req) ->
          let reply = Wire.call c r.line in
          if not (check r reply) then
            failwith
              (Printf.sprintf "warm-up %S answered %S" r.line (snd reply)))
        (Mix.warmup w));
  { server; seconds = Util.now () -. t0 }

let max_logged_errors = 5

(* Untimed seconds of the script run before each window: a freshly
   loaded million-fact heap keeps the server's major GC busy for about
   the first second, which is set-up's tail, not steady state. *)
let settle = 1.0

(* Closed loop on one connection: the next request is sent only after
   the previous reply, starting at script index [from]; returns where it
   stopped.  A fresh-connection workload makes each request through
   [Shell.Server.request], as [prefdb serve call] does; the others keep
   one connection open.  Two client connections were tried and dropped:
   against the serial serve loop on two cores they only added scheduler
   hand-offs, which moved throughput by 15% from run to run. *)
let window (w : Mix.t) (server : Wire.server) ~from ~seconds =
  let n = Array.length w.script in
  let errors = ref [] in
  let note e = if List.length !errors < max_logged_errors then errors := e :: !errors in
  let idx = Util.Vec.create 0 and lat = Util.Vec.create 0.0 and oks = Util.Vec.create false in
  let settle_requests = ref 0 and settle_failed = ref 0 and writes = ref 0 in
  let conn = ref None in
  let drop () =
    Option.iter Wire.close !conn;
    conn := None
  in
  let call line =
    if w.fresh_connections then
      match Shell.Server.request server.dir line with
      | Ok out -> Ok (true, out)
      | Error e -> Ok (false, e)
    else
      try
        let c =
          match !conn with
          | Some c -> c
          | None ->
            let c = Wire.connect server.sock in
            conn := Some c;
            c
        in
        Ok (Wire.call c line)
      with
      | Wire.Dropped e ->
        drop ();
        Error ("dropped: " ^ e)
      | Unix.Unix_error (e, _, _) ->
        drop ();
        Error ("connect: " ^ Unix.error_message e)
  in
  let t_start = Util.now () +. settle in
  let deadline = t_start +. seconds in
  let i = ref from in
  while Util.now () < deadline do
    let r = w.script.(!i mod n) in
    let t0 = Util.now () in
    let outcome =
      match call r.line with
      | Ok reply when check r reply -> Ok ()
      | Ok reply -> Error (Printf.sprintf "answered %S" (snd reply))
      | Error e -> Error e
    in
    let t1 = Util.now () in
    let good = match outcome with Ok () -> true | Error _ -> false in
    (match outcome with Ok () -> () | Error e -> note (Printf.sprintf "%S %s" r.line e));
    if good && Mix.is_write r.cls then incr writes;
    if t0 >= t_start then begin
      Util.Vec.push idx (!i mod n);
      Util.Vec.push lat ((t1 -. t0) *. 1e6);
      Util.Vec.push oks good
    end
    else begin
      incr settle_requests;
      if not good then incr settle_failed
    end;
    incr i
  done;
  drop ();
  ( !i mod n,
    {
      elapsed = Util.now () -. t_start;
      idx = Util.Vec.to_array idx;
      lat_us = Util.Vec.to_array lat;
      ok = Util.Vec.to_array oks;
      errors = List.rev !errors;
      settle_requests = !settle_requests;
      settle_failed = !settle_failed;
      writes = !writes;
    } )

(* One run's windows pooled: samples concatenated, durations summed. *)
let merge = function
  | [] -> invalid_arg "Served.merge"
  | ws ->
    let cat f = Array.concat (List.map f ws) in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 ws in
    {
      elapsed = List.fold_left (fun acc x -> acc +. x.elapsed) 0.0 ws;
      idx = cat (fun x -> x.idx);
      lat_us = cat (fun x -> x.lat_us);
      ok = cat (fun x -> x.ok);
      errors = List.concat_map (fun x -> x.errors) ws;
      settle_requests = sum (fun x -> x.settle_requests);
      settle_failed = sum (fun x -> x.settle_failed);
      writes = sum (fun x -> x.writes);
    }
