(* servebench: the served-store benchmark.

     servebench --workload W --seed N --seconds S --trace 0|1 --prefdb EXE

   Builds the workload's store once, outside every timing.  Then, five
   times: copies it, starts [EXE serve] on the copy, times set-up through
   a warm-up pass, and drives the seeded closed-loop script over the
   unix socket for S/5 seconds, checking every response.  With trace 1 it
   then replays the script in-process to attribute each request class's
   latency to the library's layers.  The last stdout line is one JSON
   object: correct, attempted, failed, metrics. *)

let usage () =
  prerr_endline
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 --prefdb EXE";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; prefdb : string }

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace get k v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  {
    workload = find "--workload";
    seed = int "--seed";
    seconds = float_of_int seconds;
    trace = (match find "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    prefdb = find "--prefdb";
  }

(* Parse "tuples: N" and "conflicts: N ..." out of the server's [info]
   answer.  ([stats] would also count components, but on the
   million-fact store it runs for over half a minute and the server
   does not survive it.) *)
let store_shape info =
  let field name =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = name ->
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          int_of_string_opt (List.hd (String.split_on_char ' ' rest))
        | _ -> None)
      (String.split_on_char '\n' info)
  in
  let show = function Some n -> string_of_int n | None -> "?" in
  (show (field "tuples"), show (field "conflicts"))

(* --- the served runs ------------------------------------------------------- *)

(* Server processes per run.  Each gets its own set-up and a fifth of the
   timed window, resuming the script where the previous one stopped:
   figures taken per process and then their median are moved little by
   interference that hits one process, or by one process's heap and
   page placement. *)
let reps = 5

type served = {
  setups : float list;
  windows : Served.window list;  (* one per server process, in order *)
  rss_mb : float list;
  wal_bytes : int;  (* log growth, summed over the processes *)
  shape : string * string;  (* facts, conflict edges *)
  scrape : (string * int) option;
      (* traced runs only: the last server's metrics, and the script
         requests it answered (warm-up, settle and window) *)
  connects : float array;  (* traced runs only: connect() times, us *)
}

(* A one-shot request, as [prefdb serve call] makes it; any failure is
   fatal. *)
let request (sv : Wire.server) line =
  match Shell.Server.request sv.dir line with
  | Ok out -> out
  | Error e -> failwith (Printf.sprintf "%S: %s" line e)

let connect_probes = 200

let serve_all (a : args) (w : Mix.t) ~pristine ~live ~on_server =
  let setups = ref [] and windows = ref [] and rss = ref [] and wal_bytes = ref 0 in
  let cursor = ref 0 and shape = ref ("?", "?") and scrape = ref None in
  let connects = ref [||] in
  for k = 1 to reps do
    let s = Served.setup ~prefdb:a.prefdb ~pristine ~dir:live w in
    on_server (Some s.server);
    setups := s.seconds :: !setups;
    if k = 1 then shape := store_shape (request s.server "info");
    let next, win =
      Served.window w s.server ~from:!cursor ~seconds:(a.seconds /. float_of_int reps)
    in
    cursor := Mix.resume w next;
    windows := win :: !windows;
    (* after the window, outside every timing *)
    rss := Wire.peak_rss_mb s.server :: !rss;
    wal_bytes := !wal_bytes + Util.file_size (Dbio.Store.wal_path live);
    if k = reps && a.trace then begin
      let answered =
        List.length (Mix.warmup w) + win.settle_requests + Array.length win.idx
      in
      scrape := Some (request s.server "metrics", answered);
      connects :=
        Array.init connect_probes (fun _ ->
            let t0 = Util.now () in
            let c = Wire.connect s.server.sock in
            let dt = (Util.now () -. t0) *. 1e6 in
            Wire.close c;
            dt)
    end;
    Wire.stop s.server;
    on_server None
  done;
  {
    setups = List.rev !setups;
    windows = List.rev !windows;
    rss_mb = List.rev !rss;
    wal_bytes = !wal_bytes;
    shape = !shape;
    scrape = !scrape;
    connects = !connects;
  }

(* --- figures --------------------------------------------------------------- *)

(* Latencies of the answered-as-expected requests matching [keep]. *)
let samples (w : Mix.t) (win : Served.window) keep =
  let v = Util.Vec.create 0.0 in
  Array.iteri
    (fun k i -> if keep w.script.(i) && win.ok.(k) then Util.Vec.push v win.lat_us.(k))
    win.idx;
  Util.Vec.to_array v

(* Quantile [q] of the matching latencies: the median over the server
   processes of each one's own quantile when every process has at least
   [min_beyond] samples beyond it, otherwise the quantile of the pooled
   samples.  Below that count one process's quantile is too rough for
   the median over five of them to beat the pooled sample. *)
let min_beyond = 100

let figure w (s : served) keep q =
  let per = List.map (fun x -> samples w x keep) s.windows in
  if List.for_all (fun xs -> Util.beyond (Array.length xs) q >= min_beyond) per then
    (Util.median (Array.of_list (List.map (fun xs -> Util.quantile xs q) per)), "per-process")
  else (Util.quantile (Array.concat per) q, "pooled")

let answered (x : Served.window) =
  Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 x.ok

let end_to_end (w : Mix.t) (s : served) =
  let ground_p50, m1 = figure w s (fun r -> r.cls = Mix.Ground) 0.5 in
  let focus_p50, m2 = figure w s w.in_focus 0.5 in
  let focus_p90, m3 = figure w s w.in_focus 0.9 in
  Printf.printf "figures: ground p50 %s; focus (%s) p50 %s, p90 %s\n" m1 w.focus m2 m3;
  let med l = Util.median (Array.of_list l) in
  [
    ("setup_s", med s.setups, "s");
    ( "throughput_rps",
      med (List.map (fun x -> float_of_int (answered x) /. x.Served.elapsed) s.windows),
      "1/s" );
    ("server_rss_mb", med s.rss_mb, "MB");
    ("ground_p50_us", ground_p50, "us");
    ("focus_p50_us", focus_p50, "us");
    ("focus_p90_us", focus_p90, "us");
  ]

(* The human-readable part of the output: what ran where, and every
   class's counts and latencies, split by shape so a bimodal class
   shows.  Returns the failure count. *)
let report (a : args) (w : Mix.t) (s : served) (win : Served.window) =
  let host_cores = Domain.recommended_domain_count () in
  let domains = Core.Pool.default_jobs () in
  Printf.printf "host_cores %d  server_domains %d%s  ocaml %s  seed %d\n" host_cores domains
    (if domains > host_cores then " (OVERSUBSCRIBED)" else "")
    Sys.ocaml_version a.seed;
  Printf.printf "store: facts %s  conflict edges %s  non-trivial components %d\n" (fst s.shape)
    (snd s.shape) w.components;
  Printf.printf "setup_s per server: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") s.setups));
  Printf.printf "rss MB per server: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") s.rss_mb));
  Printf.printf "requests/s per server: %s\n"
    (String.concat " "
       (List.map
          (fun (x : Served.window) -> Printf.sprintf "%.1f" (float_of_int (answered x) /. x.elapsed))
          s.windows));
  let n = Array.length win.idx in
  let failed = n - answered win + win.settle_failed in
  Printf.printf "window %.3f s  requests %d (+%d settle)  failed %d  error_rate %.6f\n"
    win.elapsed n win.settle_requests failed
    (float_of_int failed /. float_of_int (max 1 (n + win.settle_requests)));
  List.iter (fun e -> Printf.printf "  error: %s\n" e) win.errors;
  (* each class's share of the window's time: what throughput tracks *)
  let total_us = Array.fold_left ( +. ) 0.0 win.lat_us in
  List.iter
    (fun cls ->
      let attempted = ref 0 and spent = ref 0.0 in
      Array.iteri
        (fun k i ->
          if w.script.(i).Mix.cls = cls then begin
            incr attempted;
            spent := !spent +. win.lat_us.(k)
          end)
        win.idx;
      if !attempted > 0 then begin
        let xs = samples w win (fun r -> r.cls = cls) in
        Printf.printf
          "class %-10s attempted %6d ok %6d failed %d  time %5.1f%%  p50 %9.1f us  p90 %9.1f  p99 %9.1f\n"
          (Mix.cls_name cls) !attempted (Array.length xs) (!attempted - Array.length xs)
          (100.0 *. !spent /. total_us) (Util.median xs) (Util.quantile xs 0.9)
          (Util.quantile xs 0.99);
        let shapes = Hashtbl.create 8 in
        Array.iter
          (fun (r : Mix.req) -> if r.cls = cls then Hashtbl.replace shapes r.shape ())
          w.script;
        Hashtbl.iter
          (fun shape () ->
            let ys = samples w win (fun r -> r.cls = cls && r.shape = shape) in
            Printf.printf "  shape %-14s n %6d (%4.1f%%)  p50 %9.1f us\n" shape (Array.length ys)
              (100.0 *. float_of_int (Array.length ys) /. float_of_int (max 1 (Array.length xs)))
              (Util.median ys))
          shapes
      end)
    Mix.classes;
  Printf.printf "wal %d B\n" s.wal_bytes;
  failed

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (Util.num v) u)
          metrics))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated run still stops its server and removes its files *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let a = parse_args () in
  let w =
    match Mix.make a.workload a.seed with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" a.workload
        (String.concat ", " Mix.names);
      exit 2
  in
  let root = Filename.concat ".servebench" (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  let pristine = Filename.concat root "pristine" in
  let live = Filename.concat root "live" in
  let server = ref None in
  at_exit (fun () ->
      Option.iter Wire.stop !server;
      Util.rm_rf root;
      try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ());
  Util.rm_rf root;
  Util.mkdir_p root;
  (* store initialisation: once, outside every timing *)
  let t0 = Util.now () in
  (match Dbio.Store.init pristine (w.spec ()) with Ok () -> () | Error e -> failwith e);
  Gc.compact ();
  Attrib.resolve_expectations ~pristine ~dir:live w;
  Gc.compact ();
  Printf.printf "workload %s: store built and answers resolved in %.3f s (untimed)\n%!" w.name
    (Util.now () -. t0);
  let s = serve_all a w ~pristine ~live ~on_server:(fun sv -> server := sv) in
  let win = Served.merge s.windows in
  let failed = report a w s win in
  let metrics = end_to_end w s in
  let attempted = Array.length win.idx + win.settle_requests in
  let metrics, attempted, failed =
    match s.scrape with
    | None -> (metrics, attempted, failed)
    | Some (scrape, served_requests) ->
      Gc.compact ();
      let r = Attrib.run ~pristine ~dir:live ~seconds:a.seconds w in
      Attrib.print_table r;
      (* acknowledged writes: the windows' (settle included) and each
         server's warm-up pair *)
      let warmup_writes =
        List.length (List.filter (fun (r : Mix.req) -> Mix.is_write r.cls) (Mix.warmup w))
      in
      let writes = (reps * warmup_writes) + win.writes in
      let ground_p50 = List.find_map (fun (k, v, _) -> if k = "ground_p50_us" then Some v else None) metrics in
      let layer =
        Attrib.metrics r ~served_ground_p50_us:(Option.get ground_p50) ~connect_us:s.connects
          ~scrape ~served_requests
          ~wal_bytes_per_write:
            (if writes = 0 then 0.0 else float_of_int s.wal_bytes /. float_of_int writes)
      in
      List.iter (fun (k, v, u) -> Printf.printf "  %-44s %14.4f %s\n" k v u) layer;
      (layer, attempted + r.untraced.requests + r.traced.pass.requests, failed + r.failures)
  in
  (* a figure that could not be computed is a failed run, not a number *)
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metrics = List.map (fun (k, v, u) -> (k, (if Float.is_finite v then v else 0.0), u)) metrics in
  print_endline (json ~correct:(failed = 0 && finite) ~attempted ~failed metrics)
