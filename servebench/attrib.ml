(* The traced half: the same script replayed in-process through the
   library's public entry points ([Dbio.Store.open_], [Shell.Session.exec]
   with a [Dbio.Store.log] observer, exactly as the server wires them),
   once untraced and once with an [Obs.Sink.Memory] sink collecting the
   spans the library emits.  Per request, each span's self time (its
   duration minus its direct children's) is charged to the layer that
   owns the span; what no span covers is the residue.  The replay runs
   at one domain, so the pool's work runs on the caller and every span
   nests inside the request's: no worker-lane time or count is lost, and
   self times add up to the latency. *)

module Session = Shell.Session

(* --- opening a store the way the server does ------------------------------ *)

let entry_of_event = function
  | Session.Updated ops -> Dbio.Wal.Batch ops
  | Session.Undone -> Dbio.Wal.Undo
  | Session.Preferred p -> Dbio.Wal.Prefer p

let open_session dir =
  match Dbio.Store.open_ dir with
  | Error e -> failwith e
  | Ok store ->
    let session =
      Session.set_observer
        (Session.of_spec ~engine:(Dbio.Store.engine store) (Dbio.Store.spec store))
        (fun ev -> Dbio.Store.log store (entry_of_event ev))
    in
    (store, session)

(* Fill in every [Replay] expectation from a fresh in-process session:
   read-only scripts, so an answer depends on the request line alone. *)
let resolve_expectations ~pristine ~dir (w : Mix.t) =
  if Array.exists (fun (r : Mix.req) -> r.expect = Mix.Replay) w.script then begin
    Util.copy_store pristine dir;
    let store, session = open_session dir in
    let answers = Hashtbl.create 1024 in
    let session = ref session in
    Array.iter
      (fun (r : Mix.req) ->
        if r.expect = Mix.Replay then begin
          let out =
            match Hashtbl.find_opt answers r.line with
            | Some out -> out
            | None ->
              let s, out = Session.exec !session r.line in
              session := s;
              if Session.is_error_output out then
                failwith (Printf.sprintf "in-process %S answered %S" r.line out);
              Hashtbl.replace answers r.line out;
              out
          in
          r.expect <- Mix.Exact out
        end)
      w.script;
    Dbio.Store.close store;
    Util.rm_rf dir
  end

(* --- layers --------------------------------------------------------------- *)

let layers =
  [ "Shell.Session"; "Query.Parser"; "Planner"; "Core.Cqa/Decompose";
    "Relational.Relation"; "Core.Hyper/Hdecompose"; "Core.Delta";
    "Dbio.Wal/Store"; "Core.Conflict/Priority"; "other spans" ]

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let layer_of_span name =
  let delta =
    [ "delta.apply"; "conflict.apply_delta"; "priority.update";
      "decompose.apply_delta"; "hdelta.apply"; "hyper.apply_delta";
      "hdecompose.apply_delta"; "hpriority.update" ]
  in
  if starts_with "shell." name then "Shell.Session"
  else if List.mem name delta then "Core.Delta"
  else if starts_with "planner." name then "Planner"
  else if name = "relation.index" then "Relational.Relation"
  else if List.exists (fun p -> starts_with p name) [ "hyper."; "hcqa."; "hdecompose."; "hpriority." ]
  then "Core.Hyper/Hdecompose"
  else if starts_with "cqa." name || starts_with "decompose." name then "Core.Cqa/Decompose"
  else if starts_with "store." name then "Dbio.Wal/Store"
  else if name = "conflict.build" || name = "priority.orient" then "Core.Conflict/Priority"
  else "other spans"

(* --- per-request span accounting ------------------------------------------ *)

type span = {
  sname : string;
  dur : float;
  args : (string * Obs.Event.arg) list;  (* Begin and End args merged *)
}

(* Self time per span name and the closed spans themselves, from one
   domain's properly nested events. *)
let account events =
  let self = Hashtbl.create 16 and spans = ref [] in
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.phase with
      | Obs.Event.Begin -> stack := (e, ref 0.0) :: !stack
      | Obs.Event.End -> (
        match !stack with
        | (b, children) :: rest ->
          let dur = e.ts -. b.ts in
          let prev = Option.value (Hashtbl.find_opt self b.name) ~default:0.0 in
          Hashtbl.replace self b.name (prev +. dur -. !children);
          (match rest with (_, c) :: _ -> c := !c +. dur | [] -> ());
          stack := rest;
          spans := { sname = b.name; dur; args = b.args @ e.args } :: !spans
        | [] -> ())
      | Obs.Event.Instant -> ())
    events;
  (self, List.rev !spans)

let int_arg k (s : span) =
  match List.assoc_opt k s.args with Some (Obs.Event.Int n) -> Some n | _ -> None

let str_arg k (s : span) =
  match List.assoc_opt k s.args with Some (Obs.Event.Str v) -> Some v | _ -> None

(* --- registry readings ---------------------------------------------------- *)

let counter ?labels name =
  match Obs.Registry.find_counter ?labels name with
  | Some c -> Obs.Metric.counter_value c
  | None -> 0

let fallback_reasons =
  [ "unknown-relation"; "arity"; "dnf-blowup"; "not-nnf"; "no-atoms";
    "unbound-free-variable"; "unsafe-variable"; "unbound-comparison";
    "union-type-mismatch"; "other" ]

let fallbacks () =
  List.fold_left
    (fun acc r -> acc + counter ~labels:[ ("reason", r) ] "prefdb_planner_fallback_total")
    0 fallback_reasons

type reading = {
  fallback : int;
  evicted : int;
  gc : Gc.stat;
}

let read () =
  {
    fallback = fallbacks ();
    evicted = counter "prefdb_decompose_cache_evictions_total";
    gc = Gc.quick_stat ();
  }

(* --- the query text the parser sees --------------------------------------- *)

let families = [ "rep"; "pareto"; "global"; "l"; "s"; "g"; "c" ]

let query_text line =
  match String.split_on_char ' ' line with
  | "query" :: rest -> Some (String.concat " " rest)
  | "hyper" :: "query" :: fam :: rest when List.mem fam families ->
    Some (String.concat " " rest)
  | "hyper" :: "query" :: rest -> Some (String.concat " " rest)
  | _ -> None

(* Median of [reps] timed parses of one query text. *)
let parse_seconds =
  let memo = Hashtbl.create 256 in
  fun text ->
    match Hashtbl.find_opt memo text with
    | Some t -> t
    | None ->
      let reps = 21 in
      let ts =
        Array.init reps (fun _ ->
            let t0 = Util.now () in
            ignore (Query.Parser.parse text);
            Util.now () -. t0)
      in
      let t = Util.median ts in
      Hashtbl.replace memo text t;
      t

(* The per-repair checks inside certainty run the planner span-free, so
   its cost is measured directly: each distinct quantified or open query
   text of the script planned and executed over the whole store through
   the planner's spanned entry points (what [explain] runs), median of
   [reps].  Ground queries are left out: their certainty takes the
   clause-engine route and never reaches the planner.  The result is
   (plan, execute) seconds averaged over the script's queries. *)
let planner_probe (w : Mix.t) session =
  match Session.loaded session with
  | None -> (0.0, 0.0)
  | Some spec ->
    let db = Relational.Database.of_relations [ spec.Dbio.Instance_format.relation ] in
    let buf = Obs.Sink.Memory.create () in
    let memo = Hashtbl.create 64 in
    let probe text =
      match Hashtbl.find_opt memo text with
      | Some r -> r
      | None ->
        let r =
          match Query.Parser.parse text with
          | Error _ -> (0.0, 0.0)
          | Ok q ->
            let reps = 5 in
            let runs =
              Array.init reps (fun _ ->
                  Obs.Sink.Memory.clear buf;
                  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
                  Fun.protect
                    ~finally:(fun () -> Obs.Span.set_sink None)
                    (fun () ->
                      if Query.Ast.is_closed q then ignore (Planner.Engine.holds_spanned db q)
                      else ignore (Planner.Engine.answers_spanned db q));
                  let _, spans = account (Obs.Sink.Memory.events buf) in
                  let total name =
                    List.fold_left (fun acc sp -> if sp.sname = name then acc +. sp.dur else acc) 0.0 spans
                  in
                  (total "planner.plan", total "planner.execute"))
            in
            (Util.median (Array.map fst runs), Util.median (Array.map snd runs))
        in
        Hashtbl.replace memo text r;
        r
    in
    let plans = ref [] and execs = ref [] in
    Array.iteri
      (fun i (r : Mix.req) ->
        if i < 400 && (r.cls = Mix.Quantified || r.cls = Mix.Open) then
          Option.iter
            (fun text ->
              let p, e = probe text in
              plans := p :: !plans;
              execs := e :: !execs)
            (query_text r.line))
      w.script;
    (Util.mean (Array.of_list !plans), Util.mean (Array.of_list !execs))

(* --- the replay ----------------------------------------------------------- *)

type pass = {
  requests : int;
  exec_s : (Mix.cls, float list) Hashtbl.t;  (* per-class exec times *)
  before : reading;
  after : reading;
}

type traced = {
  pass : pass;
  self : (Mix.cls * string, float) Hashtbl.t;  (* (class, layer) -> total s *)
  tally : (string, float * int) Hashtbl.t;  (* key -> (sum, occurrences) *)
}

type result = {
  snapshot_load_s : float;
  open_s : float;
  warmup_s : float;
  untraced : pass;
  traced : traced;
  parse_s : (Mix.cls, float list) Hashtbl.t;  (* per request, traced pass *)
  planner_s : float * float;  (* plan, execute: see [planner_probe] *)
  failures : int;
}

let add tally key v =
  let s, n = Option.value (Hashtbl.find_opt tally key) ~default:(0.0, 0) in
  Hashtbl.replace tally key (s +. v, n + 1)

(* What the per-layer metrics need from one closed span: durations by
   span name (and by CQA route), and the counters the library annotates. *)
let tally_span tally (sp : span) =
  let arg k = Option.iter (fun v -> add tally (sp.sname ^ "#" ^ k) (float_of_int v)) (int_arg k sp) in
  match sp.sname with
  | "cqa.certainty" ->
    add tally ("cqa.certainty@" ^ Option.value (str_arg "route" sp) ~default:"none") sp.dur;
    List.iter arg [ "cache_hits"; "cache_misses"; "components_examined"; "combos_streamed" ]
  | "decompose.apply_delta" ->
    add tally sp.sname sp.dur;
    arg "dirtied"
  | "relation.index" | "hyper.build" | "hcqa.certainty" | "delta.apply"
  | "conflict.apply_delta" | "priority.update" ->
    add tally sp.sname sp.dur
  | _ -> ()

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

(* Replays the script cyclically from [start] for [seconds] (at least
   one request) and returns where it stopped. *)
let replay (w : Mix.t) session ~start ~seconds ~on_request =
  let n = Array.length w.script in
  let exec_s = Hashtbl.create 8 and failures = ref 0 in
  let before = read () in
  let deadline = Util.now () +. seconds in
  let i = ref start and count = ref 0 in
  while !count = 0 || Util.now () < deadline do
    let r = w.script.(!i mod n) in
    let s, out, dt = on_request !session r in
    session := s;
    if not (Mix.check r out) || Session.is_error_output out then incr failures;
    push exec_s r.cls dt;
    incr i;
    incr count
  done;
  let after = read () in
  ({ requests = !count; exec_s; before; after }, !i, !failures)

let run ~pristine ~dir ~seconds (w : Mix.t) =
  Core.Pool.set_jobs 1;
  let t0 = Util.now () in
  (match Dbio.Snapshot.load (Dbio.Store.snapshot_path pristine) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let snapshot_load_s = Util.now () -. t0 in
  Gc.compact ();
  Util.copy_store pristine dir;
  let t0 = Util.now () in
  let store, session = open_session dir in
  let open_s = Util.now () -. t0 in
  let session = ref session in
  let t0 = Util.now () in
  List.iter
    (fun (r : Mix.req) ->
      let s, out = Session.exec !session r.line in
      session := s;
      if not (Mix.check r out) then
        failwith (Printf.sprintf "in-process warm-up %S answered %S" r.line out))
    (Mix.warmup w);
  let warmup_s = Util.now () -. t0 in
  let plain session (r : Mix.req) =
    let t0 = Util.now () in
    let s, out = Session.exec session r.line in
    (s, out, Util.now () -. t0)
  in
  let untraced, next, f1 = replay w session ~start:0 ~seconds:(seconds /. 2.0) ~on_request:plain in
  (* traced pass: one reusable buffer, cleared per request *)
  let buf = Obs.Sink.Memory.create ~capacity:65536 () in
  let self = Hashtbl.create 64 and tally = Hashtbl.create 64 in
  let parse_s = Hashtbl.create 8 in
  let traced_req session (r : Mix.req) =
    Obs.Sink.Memory.clear buf;
    Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
    let t0 = Util.now () in
    let s, out =
      Fun.protect
        ~finally:(fun () -> Obs.Span.set_sink None)
        (fun () -> Session.exec session r.line)
    in
    let dt = Util.now () -. t0 in
    let by_name, closed = account (Obs.Sink.Memory.events buf) in
    let p = match query_text r.line with Some q -> parse_seconds q | None -> 0.0 in
    push parse_s r.cls p;
    Hashtbl.iter
      (fun name t ->
        let layer = layer_of_span name in
        let key = (r.cls, layer) in
        let t = if layer = "Shell.Session" then t -. p else t in
        Hashtbl.replace self key (t +. Option.value (Hashtbl.find_opt self key) ~default:0.0))
      by_name;
    let key = (r.cls, "Query.Parser") in
    Hashtbl.replace self key (p +. Option.value (Hashtbl.find_opt self key) ~default:0.0);
    List.iter (tally_span tally) closed;
    (s, out, dt)
  in
  let tpass, _, f2 =
    replay w session ~start:next ~seconds:(seconds /. 2.0) ~on_request:traced_req
  in
  let planner_s = planner_probe w !session in
  Dbio.Store.close store;
  {
    snapshot_load_s;
    open_s;
    warmup_s;
    untraced;
    traced = { pass = tpass; self; tally };
    parse_s;
    planner_s;
    failures = f1 + f2;
  }

(* --- per-layer figures ---------------------------------------------------- *)

(* Sum of every sample of a family in a Prometheus text exposition. *)
let scraped text name =
  List.fold_left
    (fun acc line ->
      let stop =
        match String.index_opt line '{', String.index_opt line ' ' with
        | Some i, Some j -> min i j
        | None, Some j -> j
        | Some i, None -> i
        | None, None -> String.length line
      in
      if line <> "" && line.[0] <> '#' && String.sub line 0 stop = name then
        match String.rindex_opt line ' ' with
        | Some j -> (
          match float_of_string_opt (String.sub line (j + 1) (String.length line - j - 1)) with
          | Some v -> acc +. v
          | None -> acc)
        | None -> acc
      else acc)
    0.0 (String.split_on_char '\n' text)

let routes = [ "ground"; "deviation-scan"; "full-product" ]

let is_query (c : Mix.cls) = not (Mix.is_write c)

let count_where (p : pass) keep =
  Hashtbl.fold (fun c ts acc -> if keep c then acc + List.length ts else acc) p.exec_s 0

let class_times (p : pass) c = Array.of_list (Option.value (Hashtbl.find_opt p.exec_s c) ~default:[])

let zero_nan x = if Float.is_nan x then 0.0 else x

(* [served] gives what the untraced served window measured: the ground
   p50 seen by the client, connect() times, the server's scrape with
   the number of script requests that server answered, and the WAL
   growth per acknowledged write.  The pool figures come from the
   server's scrape: the in-process replay runs at one domain. *)
let metrics (r : result) ~served_ground_p50_us ~connect_us ~scrape ~served_requests
    ~wal_bytes_per_write =
  let us x = x *. 1e6 in
  let t = r.traced.tally in
  let sum k = match Hashtbl.find_opt t k with Some (s, _) -> s | None -> 0.0 in
  let cnt k = match Hashtbl.find_opt t k with Some (_, n) -> n | None -> 0 in
  let avg k = if cnt k = 0 then 0.0 else sum k /. float_of_int (cnt k) in
  let tp = r.traced.pass and up = r.untraced in
  let queries = float_of_int (max 1 (count_where tp is_query)) in
  let writes = float_of_int (max 1 (count_where tp Mix.is_write)) in
  let served = float_of_int (max 1 served_requests) in
  let uwrites = count_where up Mix.is_write in
  let exec_p50 c = zero_nan (us (Util.median (class_times up c))) in
  let certainty_calls = List.fold_left (fun acc rt -> acc + cnt ("cqa.certainty@" ^ rt)) 0 routes in
  let per_cert k = if certainty_calls = 0 then 0.0 else sum k /. float_of_int certainty_calls in
  let hits = sum "cqa.certainty#cache_hits" and misses = sum "cqa.certainty#cache_misses" in
  let parses =
    Hashtbl.fold (fun c ps acc -> if is_query c then ps @ acc else acc) r.parse_s []
  in
  let per_class =
    List.concat_map
      (fun c ->
        let name = Mix.cls_name c in
        let traced = class_times tp c and plain = class_times up c in
        let lat = zero_nan (us (Util.mean traced)) in
        let n = float_of_int (max 1 (Array.length traced)) in
        let attributed =
          List.fold_left
            (fun acc l ->
              acc +. Option.value (Hashtbl.find_opt r.traced.self (c, l)) ~default:0.0)
            0.0 layers
        in
        [
          ("session.exec_us." ^ name, exec_p50 c, "us");
          ("trace.latency_us." ^ name, lat, "us");
          ("trace.residue_us." ^ name, (if traced = [||] then 0.0 else lat -. us (attributed /. n)), "us");
          ( "trace.overhead_us." ^ name,
            (if traced = [||] || plain = [||] then 0.0 else lat -. us (Util.mean plain)),
            "us" );
        ])
      Mix.classes
  in
  let gc_major = up.after.gc.major_collections - up.before.gc.major_collections in
  let gc_words = up.after.gc.major_words -. up.before.gc.major_words in
  let nreq = float_of_int (max 1 up.requests) in
  let wal_appends = scraped scrape "prefdb_wal_append_seconds_count" in
  per_class
  @ [
      ("server.socket_us", served_ground_p50_us -. exec_p50 Mix.Ground, "us");
      ("server.connect_us", zero_nan (Util.median connect_us), "us");
      ("parser.parse_us", zero_nan (us (Util.mean (Array.of_list parses))), "us");
      ("planner.plan_us", zero_nan (us (fst r.planner_s)), "us");
      ("planner.execute_us", zero_nan (us (snd r.planner_s)), "us");
      ("planner.fallback_ratio", float_of_int (tp.after.fallback - tp.before.fallback) /. queries, "ratio");
    ]
  @ List.map (fun rt -> ("cqa.certainty_us." ^ rt, us (avg ("cqa.certainty@" ^ rt)), "us")) routes
  @ List.map
      (fun rt ->
        ( "cqa.route_share." ^ rt,
          (if certainty_calls = 0 then 0.0
           else float_of_int (cnt ("cqa.certainty@" ^ rt)) /. float_of_int certainty_calls),
          "ratio" ))
      routes
  @ [
      ("decompose.cache_hit_ratio", (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)), "ratio");
      ("decompose.components_examined_per_query", per_cert "cqa.certainty#components_examined", "count");
      ("decompose.combos_streamed_per_query", per_cert "cqa.certainty#combos_streamed", "count");
      ("relation.index_builds_per_query", float_of_int (cnt "relation.index") /. queries, "count");
      ("relation.index_us", us (sum "relation.index" /. queries), "us");
      ("hyper.build_us", us (avg "hyper.build"), "us");
      ("hyper.certainty_us", us (avg "hcqa.certainty"), "us");
      ("delta.apply_us", us (avg "delta.apply"), "us");
      ("delta.conflict_patch_us", us (avg "conflict.apply_delta"), "us");
      ("delta.priority_update_us", us (avg "priority.update"), "us");
      ("delta.decompose_patch_us", us (avg "decompose.apply_delta"), "us");
      ( "delta.components_dirtied_per_write",
        (if cnt "decompose.apply_delta" = 0 then 0.0 else sum "decompose.apply_delta#dirtied" /. writes),
        "count" );
      ( "delta.cache_evicted_per_write",
        (if uwrites = 0 then 0.0
         else float_of_int (up.after.evicted - up.before.evicted) /. float_of_int uwrites),
        "count" );
      ( "wal.append_us",
        (if wal_appends = 0.0 then 0.0
         else us (scraped scrape "prefdb_wal_append_seconds_sum" /. wal_appends)),
        "us" );
      ("wal.bytes_per_write", wal_bytes_per_write, "B");
      ("store.snapshot_load_s", r.snapshot_load_s, "s");
      ("store.open_s", r.open_s, "s");
      ("session.warmup_s", r.warmup_s, "s");
      ("pool.tasks_per_query", scraped scrape "prefdb_pool_tasks_total" /. served, "count");
      ("pool.steals_per_query", scraped scrape "prefdb_pool_steals_total" /. served, "count");
      ("gc.major_collections_per_1k_requests", 1000.0 *. float_of_int gc_major /. nreq, "count");
      ("gc.major_words_per_request", gc_words /. nreq, "words");
    ]

(* The layer table: per class, the traced latency (mean), each layer's
   mean self time, the residue no span covers (the two sum to the
   latency), the tracing overhead, and the layer that dominates. *)
let print_table (r : result) =
  let tp = r.traced.pass and up = r.untraced in
  List.iter
    (fun c ->
      let traced = class_times tp c in
      if traced <> [||] then begin
        let n = float_of_int (Array.length traced) in
        let lat = Util.mean traced *. 1e6 in
        let selfs =
          List.map
            (fun l -> (l, Option.value (Hashtbl.find_opt r.traced.self (c, l)) ~default:0.0 /. n *. 1e6))
            layers
        in
        let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 selfs in
        let dominant, _ =
          List.fold_left (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv)) ("-", neg_infinity) selfs
        in
        Printf.printf "layers %-10s traced mean %10.1f us over %d requests; dominant: %s\n"
          (Mix.cls_name c) lat (Array.length traced) dominant;
        List.iter
          (fun (l, v) ->
            if v <> 0.0 then Printf.printf "  %-24s %10.1f us  %5.1f%%\n" l v (100.0 *. v /. lat))
          selfs;
        Printf.printf "  %-24s %10.1f us  %5.1f%%\n" "residue (no span)" (lat -. attributed)
          (100.0 *. (lat -. attributed) /. lat);
        if List.assoc "Core.Cqa/Decompose" selfs <> 0.0 then
          print_endline
            "  (Core.Cqa/Decompose includes the per-repair Planner checks, which run without spans)";
        Printf.printf "  %-24s %10.1f us  (untraced mean %.1f us)\n" "tracing overhead"
          (lat -. (Util.mean (class_times up c) *. 1e6))
          (Util.mean (class_times up c) *. 1e6)
      end)
    Mix.classes
