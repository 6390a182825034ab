(* prefdb — preference-driven querying of inconsistent relational data.

   A command-line front end to the library: load an instance file (see
   lib/dbio/instance_format.mli for the format), inspect its conflicts,
   enumerate or check preferred repairs, clean it, and compute preferred
   consistent query answers and aggregate ranges. *)

open Cmdliner
module IF = Dbio.Instance_format
module Family = Core.Family

(* --- shared helpers ------------------------------------------------------- *)

let load path =
  match IF.parse_file path with
  | Ok spec -> Ok spec
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let context spec =
  let c = Core.Conflict.build spec.IF.fds spec.IF.relation in
  match IF.to_rule spec with
  | Error e -> Error e
  | Ok rule -> (
    match Core.Pref_rules.apply c rule with
    | Error e -> Error e
    | Ok p -> Ok (c, p))

let with_context path f =
  match load path with
  | Error e ->
    Format.eprintf "error: %s@." e;
    1
  | Ok spec -> (
    match context spec with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok (c, p) -> f spec c p)

(* Parse VALUES with the instance-file tuple syntax, against a one-line
   document carrying just the loaded schema. *)
let parse_tuple spec values =
  let schema = Relational.Relation.schema spec.IF.relation in
  let schema_line =
    Printf.sprintf "relation %s(%s)"
      (Relational.Schema.name schema)
      (String.concat ", "
         (List.map
            (fun a ->
              Printf.sprintf "%s:%s" a.Relational.Schema.attr_name
                (match a.Relational.Schema.attr_ty with
                | Relational.Schema.TName -> "name"
                | Relational.Schema.TInt -> "int"))
            (Relational.Schema.attributes schema)))
  in
  match IF.parse (Printf.sprintf "%s\ntuple %s\n" schema_line values) with
  | Error e -> Error e
  | Ok s -> (
    match Relational.Relation.tuples s.IF.relation with
    | [ t ] -> Ok t
    | _ -> Error "expected exactly one tuple")

(* --- tracing ---------------------------------------------------------------- *)

let write_trace path events =
  let data =
    if Filename.check_suffix path ".jsonl" then Obs.Export.jsonl_string events
    else Obs.Export.chrome_string events
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc data)

(* Collect the run's spans into a memory sink and write them to [path]
   on the way out (also on error paths: the stream is balanced anyway). *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
    let buf = Obs.Sink.Memory.create () in
    Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
    let finish () =
      Obs.Span.set_sink None;
      write_trace path (Obs.Sink.Memory.events buf);
      if Obs.Sink.Memory.dropped buf > 0 then
        Format.eprintf "trace: %d event(s) dropped (buffer full)@."
          (Obs.Sink.Memory.dropped buf)
    in
    (match f () with
    | code ->
      finish ();
      code
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt)

(* --- arguments ------------------------------------------------------------- *)

(* Every subcommand accepts -j/--jobs; the pool width is fixed before
   the command body runs. [with_jobs run] relies on cmdliner applying
   term arguments left to right: the flag's value is consumed (and the
   width set) before the remaining arguments reach [run]. *)
let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "invalid jobs count %S (expected N >= 1)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:
             "Evaluate repair/CQA kernels with $(docv) domains (default: the \
              PREFDB_JOBS environment variable, else the host's recommended \
              domain count). 1 disables parallelism.")

let with_jobs run jobs =
  (match jobs with Some n -> Core.Pool.set_jobs n | None -> ());
  run

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:
             "Write a machine-readable trace of the run to $(docv): Chrome \
              trace-event JSON (open in chrome://tracing or Perfetto), or \
              one JSON event per line when $(docv) ends in .jsonl.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Instance file (see the repository README for the format).")

let family_arg =
  let parse s =
    match Family.name_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown family %S (use rep|l|s|g|c)" s))
  in
  let print ppf f = Family.pp_name ppf f in
  Arg.(value & opt (conv (parse, print)) Family.C
       & info [ "f"; "family" ] ~docv:"FAMILY"
           ~doc:"Preferred-repair family: rep, l, s, g or c (default c).")

let limit_arg =
  Arg.(value & opt int 20
       & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) repairs.")

(* --- info ------------------------------------------------------------------- *)

let info_cmd =
  let run path =
    with_context path (fun spec c p ->
        let schema = Relational.Relation.schema spec.IF.relation in
        Format.printf "relation: %a@." Relational.Schema.pp schema;
        Format.printf "tuples:   %d@."
          (Relational.Relation.cardinality spec.IF.relation);
        List.iter
          (fun fd -> Format.printf "fd:       %a@." Constraints.Fd.pp fd)
          spec.IF.fds;
        Format.printf "candidate keys: %s@."
          (String.concat ", "
             (List.map
                (fun k -> "{" ^ String.concat " " k ^ "}")
                (Constraints.Fd.candidate_keys schema spec.IF.fds)));
        Format.printf "BCNF:     %b@."
          (Constraints.Fd.is_bcnf schema spec.IF.fds);
        Format.printf "domains:  %d@." (Core.Pool.jobs ());
        let edges = Core.Conflict.conflict_pairs c in
        Format.printf "conflicts: %d (%d oriented by the preferences)@."
          (List.length edges)
          (Core.Priority.arc_count p);
        List.iter
          (fun (t1, t2) ->
            Format.printf "  %a  <->  %a@." Relational.Tuple.pp t1
              Relational.Tuple.pp t2)
          edges;
        0)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show schema, constraints, conflicts and preferences.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let run path family trace_out =
    with_trace trace_out @@ fun () ->
    with_context path (fun _spec c p ->
        Format.printf "%a@." Core.Stats.pp (Core.Stats.compute family c p);
        0)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Inconsistency summary: conflicts, components, repair counts and \
          tuple fates under the family's preferences.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ trace_out_arg)

(* --- repairs ---------------------------------------------------------------- *)

let repairs_cmd =
  let run path family limit =
    with_context path (fun _spec c p ->
        let repairs = Family.repairs family c p in
        Format.printf "%s: %d preferred repair(s)@."
          (Family.name_to_string family)
          (List.length repairs);
        List.iteri
          (fun i s ->
            if i < limit then begin
              Format.printf "--- repair %d ---@." (i + 1);
              Relational.Relation.iter
                (fun t -> Format.printf "  %a@." Relational.Tuple.pp t)
                (Core.Repair.to_relation c s)
            end)
          repairs;
        if List.length repairs > limit then
          Format.printf "... (%d more; raise --limit)@."
            (List.length repairs - limit);
        0)
  in
  Cmd.v
    (Cmd.info "repairs"
       ~doc:"Enumerate the preferred repairs of the given family.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ limit_arg)

(* --- check ------------------------------------------------------------------ *)

let check_cmd =
  let candidate_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CANDIDATE"
             ~doc:"Instance file holding the candidate repair (same schema).")
  in
  let run path candidate family =
    with_context path (fun _spec c p ->
        match load candidate with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok cand -> (
          match
            Core.Conflict.vset_of_relation c cand.IF.relation
          with
          | exception Invalid_argument m ->
            Format.eprintf "error: %s@." m;
            1
          | s ->
            let ok = Family.check family c p s in
            Format.printf "%s-repair check: %s@."
              (Family.name_to_string family)
              (if ok then "YES" else "NO");
            if ok then 0 else 2))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "X-repair checking: is the candidate a preferred repair of the \
          family? Exits 0 for yes, 2 for no.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ candidate_arg $ family_arg)

(* --- clean ------------------------------------------------------------------ *)

let clean_cmd =
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Show each Algorithm 1 step and its choices.")
  in
  let run path trace trace_out =
    with_trace trace_out @@ fun () ->
    with_context path (fun _spec c p ->
        if trace then
          Format.printf "%a@." (Core.Trace.pp c) (Core.Trace.clean c p)
        else begin
          let report = Core.Clean.run_with_priority c p in
          Format.printf "%a@." Core.Clean.pp_report report;
          Relational.Relation.iter
            (fun t -> Format.printf "  %a@." Relational.Tuple.pp t)
            report.Core.Clean.cleaned
        end;
        0)
  in
  Cmd.v
    (Cmd.info "clean"
       ~doc:
         "Clean the instance with Algorithm 1 under the declared \
          preferences (keeps one common repair).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ trace_arg $ trace_out_arg)

(* --- count ------------------------------------------------------------------ *)

let count_cmd =
  let run path family trace_out =
    with_trace trace_out @@ fun () ->
    with_context path (fun _spec c p ->
        let d = Core.Decompose.make c p in
        Format.printf "%s: %d preferred repair(s) across %d conflict component(s)@."
          (Family.name_to_string family)
          (Core.Decompose.count family d)
          (Core.Decompose.component_count d);
        0)
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:
         "Count the preferred repairs without enumerating them \
          (component-factorized; fast whenever conflict components are \
          small).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ trace_out_arg)

(* --- query ------------------------------------------------------------------ *)

(* The planner's view of the loaded instance: the (dirty) relation as a
   one-relation database, costed with exact column statistics from one
   scan. *)
let planner_report spec q =
  let s = Planner.Stats.scan spec.IF.relation in
  let name = Planner.Stats.relation_name s in
  let stats r = if String.equal r name then Some s else None in
  Planner.Explain.run ~stats
    (Relational.Database.of_relations [ spec.IF.relation ])
    q

(* Collect the run's spans into a fresh buffer, teeing onto whatever
   sink is already live (e.g. --trace-out), so the slow-query log sees
   the same phases a trace would. *)
let with_span_capture f =
  let buf = Obs.Sink.Memory.create () in
  let prev = Obs.Span.sink () in
  let sink =
    match prev with
    | None -> Obs.Sink.Memory.sink buf
    | Some s -> Obs.Sink.tee s (Obs.Sink.Memory.sink buf)
  in
  Obs.Span.set_sink (Some sink);
  let r = Fun.protect ~finally:(fun () -> Obs.Span.set_sink prev) f in
  (r, Obs.Sink.Memory.events buf)

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let slow_query_ms_arg =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t >= 0.0 -> Ok t
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid threshold %S (expected a number of milliseconds >= 0)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_float))) None
       & info [ "slow-query-ms" ] ~docv:"MS"
           ~doc:
             "Capture any query slower than $(docv) milliseconds as one \
              JSONL record (query text, verdict, wall time, per-phase \
              spans, and the planner report with estimated vs. actual \
              cardinalities) in the slow-query log. 0 captures \
              everything.")

let slow_log_arg =
  Arg.(value & opt (some string) None
       & info [ "slow-query-log" ] ~docv:"FILE"
           ~doc:
             "Where --slow-query-ms appends its records (default: \
              slow.jsonl under the store directory when serving, \
              ./slow.jsonl otherwise).")

let query_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:
               "Also report what the component decomposition did: \
                per-component repair counts, cache traffic, combinations \
                streamed, early exits.")
  in
  let run path family qtext trace slow_ms slow_log trace_out =
    with_trace trace_out @@ fun () ->
    with_context path (fun spec c p ->
        match Shell.Session.parse_query spec qtext with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok q ->
          (* every route goes through the component decomposition: ground
             queries hit the clause engine, quantified ones the streaming
             deviation scan — exponential only in the largest component *)
          let d = Core.Decompose.make c p in
          let answer () =
            if Query.Ast.is_closed q then
              if trace then
                Format.asprintf "%a" Core.Trace.pp_cqa
                  (Core.Trace.certainty family d q)
              else
                Format.asprintf "%s-consistent answer: %s"
                  (Family.name_to_string family)
                  (Core.Cqa.certainty_to_string
                     (Core.Decompose.certainty family d q))
            else begin
              let free, rows =
                Core.Decompose.consistent_answers_open family d q
              in
              Format.asprintf "%t" (fun ppf ->
                  Format.fprintf ppf "certain answers (%s):@,"
                    (String.concat ", " free);
                  List.iter
                    (fun row ->
                      Format.fprintf ppf "  (%s)@,"
                        (String.concat ", "
                           (List.map Relational.Value.to_string row)))
                    rows;
                  Format.fprintf ppf "%d certain answer(s)"
                    (List.length rows);
                  if trace then
                    Format.fprintf ppf "@,%a" Core.Decompose.pp_counters
                      (Core.Decompose.counters d))
            end
          in
          let t0 = Unix.gettimeofday () in
          let output, events =
            match slow_ms with
            | None -> (answer (), [])
            | Some _ -> with_span_capture answer
          in
          let wall = Unix.gettimeofday () -. t0 in
          print_endline output;
          (match slow_ms with
          | Some thr when (wall *. 1000.0) +. 1e-9 >= thr ->
            let explain =
              match planner_report spec q with
              | report ->
                Some
                  ( Format.asprintf "%a" Planner.Explain.pp report,
                    Planner.Explain.to_json report )
              | exception Invalid_argument _ -> None
            in
            let record =
              {
                Shell.Slowlog.ts = Unix.gettimeofday ();
                cmd = "query";
                query = qtext;
                verdict = first_line output;
                wall_ms = wall *. 1000.0;
                phases = Obs.Profile.flat (Obs.Profile.tree events);
                explain;
              }
            in
            let log = Option.value slow_log ~default:"slow.jsonl" in
            (match Shell.Slowlog.append ~path:log record with
            | Ok () -> Format.eprintf "slow query logged to %s@." log
            | Error e -> Format.eprintf "slow-query log: %s@." e)
          | _ -> ());
          0)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Compute the preferred consistent answer to a closed query, or \
          the certain bindings of an open one. Answers are computed \
          through the conflict-component decomposition.")
    Term.(
      const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ query_arg
      $ trace_arg $ slow_query_ms_arg $ slow_log_arg $ trace_out_arg)

(* --- facts ------------------------------------------------------------------- *)

let facts_cmd =
  let run path family =
    with_context path (fun _spec c p ->
        let d = Core.Decompose.make c p in
        let certain = Core.Decompose.certain_tuples family d in
        let possible = Core.Decompose.possible_tuples family d in
        let all = Core.Conflict.live c in
        let show label s =
          Format.printf "%s (%d):@." label (Graphs.Vset.cardinal s);
          Graphs.Vset.iter
            (fun v ->
              Format.printf "  %a@." Relational.Tuple.pp (Core.Conflict.tuple c v))
            s
        in
        show "certain (in every preferred repair)" certain;
        show "disputed (in some preferred repairs)" (Graphs.Vset.diff possible certain);
        show "excluded (in no preferred repair)" (Graphs.Vset.diff all possible);
        0)
  in
  Cmd.v
    (Cmd.info "facts"
       ~doc:
         "Classify every tuple as certain, disputed or excluded under the \
          family's preferred repairs (component-factorized).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg)

(* --- explain / plan ----------------------------------------------------------- *)

let explain_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"Closed first-order query text.")
  in
  let run path family qtext =
    with_context path (fun spec c p ->
        match Shell.Session.parse_query spec qtext with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok q ->
          if not (Query.Ast.is_closed q) then begin
            Format.eprintf "error: explain requires a closed query@.";
            1
          end
          else begin
            (* the plan every per-repair certainty check executes, shown
               over the current instance *)
            Format.printf "%a@." Planner.Explain.pp_plan_only
              (planner_report spec q);
            let v = Core.Explain.query family c p q in
            Format.printf "%a@." (Core.Explain.pp_verdict c) v;
            0
          end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Answer a closed query and show witness repairs supporting and \
          refuting it, prefixed with the physical plan the per-repair \
          checks execute (cost-based join order, access paths, estimated \
          vs. actual cardinalities).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ query_arg)

let plan_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let run path qtext json =
    with_context path (fun spec _c _p ->
        match Shell.Session.parse_query spec qtext with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok q -> (
          match planner_report spec q with
          | report ->
            if json then
              print_endline (Obs.Json.to_string (Planner.Explain.to_json report))
            else Format.printf "%a@." Planner.Explain.pp report;
            0
          | exception Invalid_argument m ->
            Format.eprintf "error: %s@." m;
            1))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the cost-based physical plan for a query over the instance \
          (not its repairs): chosen join order, access paths (index, range \
          and merge scans), estimated vs. actual cardinalities — or the \
          fallback reason when the query is outside the compilable \
          fragment.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ query_arg $ json_arg)

(* --- status ------------------------------------------------------------------- *)

let status_cmd =
  let tuple_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TUPLE"
             ~doc:
               "The tuple's values, space-separated, as on a 'tuple' line \
                of the instance file (quote the whole argument).")
  in
  let run path family tuple_text =
    with_context path (fun spec c p ->
        match parse_tuple spec tuple_text with
        | Error e ->
          Format.eprintf "error: cannot parse tuple: %s@." e;
          1
        | Ok t -> (
          match Core.Explain.tuple_status family c p t with
          | st ->
            Format.printf "%a@." Core.Explain.pp_tuple_status st;
            0
          | exception Invalid_argument m ->
            Format.eprintf "error: %s@." m;
            1))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show a tuple's conflicts, its domination situation and whether \
          the preferred repairs keep it.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ tuple_arg)

(* --- aggregate ---------------------------------------------------------------- *)

let aggregate_cmd =
  let agg_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"AGG"
             ~doc:"Aggregate: count, sum:ATTR, min:ATTR or max:ATTR.")
  in
  let parse_agg s =
    match String.split_on_char ':' s with
    | [ "count" ] -> Ok Core.Aggregate.Count_all
    | [ "sum"; a ] -> Ok (Core.Aggregate.Sum a)
    | [ "min"; a ] -> Ok (Core.Aggregate.Min a)
    | [ "max"; a ] -> Ok (Core.Aggregate.Max a)
    | _ -> Error (Printf.sprintf "cannot parse aggregate %S" s)
  in
  let run path family agg_text =
    with_context path (fun _spec c p ->
        match parse_agg agg_text with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok agg -> (
          let result =
            if family = Family.Rep then Core.Aggregate.range c agg
            else Core.Aggregate.range_preferred family c p agg
          in
          match result with
          | Error e ->
            Format.eprintf "error: %s@." e;
            1
          | Ok r ->
            Format.printf "%s over %s repairs: %a@."
              (Core.Aggregate.agg_to_string agg)
              (Family.name_to_string family)
              Core.Aggregate.pp_range r;
            0))
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Range-consistent answer to a scalar aggregation query.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ agg_arg)

(* --- update ------------------------------------------------------------------ *)

let update_cmd =
  let insert_arg =
    Arg.(value & opt_all string []
         & info [ "i"; "insert" ] ~docv:"VALUES"
             ~doc:
               "Insert a tuple (values as on a 'tuple' line of the instance \
                file; quote the whole argument). Repeatable.")
  in
  let delete_arg =
    Arg.(value & opt_all string []
         & info [ "d"; "delete" ] ~docv:"VALUES"
             ~doc:"Delete a tuple. Repeatable; deletions run before insertions.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"OUT"
             ~doc:"Write the updated instance (with its preferences) to $(docv).")
  in
  let run path family inserts deletes save trace_out =
    with_trace trace_out @@ fun () ->
    match load path with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok spec -> (
      match IF.to_rule spec with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok rule -> (
        match Core.Delta.create ~rule spec.IF.fds spec.IF.relation with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok eng -> (
          let parse_ops mk = function
            | [] -> Ok []
            | texts ->
              List.fold_left
                (fun acc text ->
                  match (acc, parse_tuple spec text) with
                  | Error e, _ -> Error e
                  | Ok _, Error e -> Error e
                  | Ok ops, Ok t -> Ok (mk t :: ops))
                (Ok []) texts
              |> Result.map List.rev
          in
          let ops =
            match parse_ops (fun t -> Core.Delta.Delete t) deletes with
            | Error e -> Error e
            | Ok dels -> (
              match parse_ops (fun t -> Core.Delta.Insert t) inserts with
              | Error e -> Error e
              | Ok inss -> Ok (dels @ inss))
          in
          match ops with
          | Error e ->
            Format.eprintf "error: %s@." e;
            1
          | Ok [] ->
            Format.eprintf "error: nothing to do (use --insert/--delete)@.";
            1
          | Ok ops -> (
            match Core.Delta.apply eng ops with
            | Error e ->
              Format.eprintf "error: %s@." e;
              1
            | Ok report ->
              let d = Core.Delta.decompose eng in
              Format.printf "%a@." Core.Delta.pp_report report;
              Format.printf
                "%s: %d preferred repair(s) across %d conflict component(s)@."
                (Family.name_to_string family)
                (Core.Decompose.count family d)
                (Core.Decompose.component_count d);
              Format.printf "%a@." Core.Decompose.pp_counters
                (Core.Decompose.counters d);
              (match save with
              | None -> 0
              | Some out -> (
                let spec' =
                  { spec with IF.relation = Core.Delta.relation eng }
                in
                match IF.save out spec' with
                | Ok () ->
                  Format.printf "saved %s@." out;
                  0
                | Error m ->
                  Format.eprintf "error: %s@." m;
                  1))))))
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply a batch of tuple insertions and deletions through the \
          incremental engine: the conflict graph is maintained by delta, \
          only the components the batch touches are re-decomposed, and the \
          work report shows what was dirtied, evicted and retained.")
    Term.(
      const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ insert_arg
      $ delete_arg $ save_arg $ trace_out_arg)

(* --- shell ------------------------------------------------------------------- *)

let shell_cmd =
  let file_opt =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Instance file to load on startup.")
  in
  let run path trace_out =
    with_trace trace_out @@ fun () ->
    (* scripted runs (piped stdin) must fail loudly: remember whether any
       command errored and exit non-zero at EOF. An interactive session
       keeps exiting 0 — errors were already shown to the human. *)
    let interactive = Unix.isatty Unix.stdin in
    let errored = ref false in
    let note output =
      if Shell.Session.is_error_output output then errored := true
    in
    let state =
      match path with
      | None -> Shell.Session.initial
      | Some path ->
        let st, msg = Shell.Session.exec Shell.Session.initial ("load " ^ path) in
        print_endline msg;
        note msg;
        st
    in
    print_endline "prefdb shell — 'help' lists commands, 'quit' leaves.";
    let exit_code () = if (not interactive) && !errored then 1 else 0 in
    let rec loop state =
      print_string "prefdb> ";
      match In_channel.input_line In_channel.stdin with
      | None -> exit_code ()
      | Some line -> (
        match String.lowercase_ascii (String.trim line) with
        | "quit" | "exit" -> exit_code ()
        | _ ->
          let state, output = Shell.Session.exec state line in
          if output <> "" then print_endline output;
          note output;
          loop state)
    in
    loop state
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive session over an instance file.")
    Term.(const (with_jobs run) $ jobs_arg $ file_opt $ trace_out_arg)

(* --- profile ------------------------------------------------------------------ *)

let pp_seconds ppf s =
  if s < 1e-3 then Format.fprintf ppf "%.2f us" (s *. 1e6)
  else if s < 1. then Format.fprintf ppf "%.2f ms" (s *. 1e3)
  else Format.fprintf ppf "%.3f s" s

let profile_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let run path family qtext trace_out =
    let buf = Obs.Sink.Memory.create () in
    Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
    let t0 = Unix.gettimeofday () in
    let code =
      (* one root span brackets everything measured, so the profile
         tree accounts for (almost) all of the wall time below *)
      Obs.Span.with_span "profile" @@ fun () ->
      with_context path (fun spec c p ->
          match Shell.Session.parse_query spec qtext with
          | Error e ->
            Format.eprintf "error: %s@." e;
            1
          | Ok q ->
            let d = Core.Decompose.make c p in
            if Query.Ast.is_closed q then begin
              Format.printf "%s-consistent answer: %s@."
                (Family.name_to_string family)
                (Core.Cqa.certainty_to_string
                   (Core.Decompose.certainty family d q));
              0
            end
            else begin
              let _free, rows =
                Core.Decompose.consistent_answers_open family d q
              in
              Format.printf "%d certain answer(s)@." (List.length rows);
              0
            end)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Obs.Span.set_sink None;
    (* a run that failed (bad file, bad query) has nothing to profile *)
    if code = 0 then begin
      let events = Obs.Sink.Memory.events buf in
      let nodes = Obs.Profile.tree events in
      let covered = Obs.Profile.total nodes in
      Format.printf "@.%a@." Obs.Profile.pp nodes;
      Format.printf "wall time %a; spans cover %.1f%% (%d event(s))@."
        pp_seconds wall
        (if wall > 0. then 100. *. covered /. wall else 100.)
        (List.length events);
      match trace_out with
      | None -> ()
      | Some out ->
        write_trace out events;
        Format.printf "trace written to %s@." out
    end;
    code
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Answer a query and print a hierarchical time profile of the \
          whole run: conflict-graph construction, preference orientation, \
          per-component repair enumeration and the CQA route taken \
          (ground clause engine, deviation scan or full product), with \
          counter deltas attached to each span.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg $ query_arg $ trace_out_arg)

(* --- validate-trace ----------------------------------------------------------- *)

let validate_trace_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file written by --trace-out or 'profile'.")
  in
  let run path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m ->
      Format.eprintf "error: %s@." m;
      1
    | text -> (
      let result =
        if Filename.check_suffix path ".jsonl" then
          Obs.Export.validate_jsonl text
        else
          match Obs.Json.of_string text with
          | Error e -> Error e
          | Ok j -> Obs.Export.validate j
      in
      match result with
      | Ok n ->
        Format.printf
          "%s: valid (%d event(s); timestamps monotone, spans balanced)@."
          path n;
        0
      | Error e ->
        Format.eprintf "%s: INVALID: %s@." path e;
        1)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check a trace file's invariants: well-formed JSON, monotone \
          non-decreasing timestamps and balanced begin/end span pairs with \
          matching names. Exits non-zero on violation.")
    Term.(const (with_jobs run) $ jobs_arg $ trace_file_arg)

(* --- the durable store: init + serve lifecycle -------------------------------- *)

module Server = Shell.Server

let dir_arg =
  Arg.(value & opt string ".prefdb"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Store directory (snapshot, write-ahead log, server files).")

let request_timeout_arg =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t > 0.0 -> Ok t
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid timeout %S (expected a positive number of seconds)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_float))) None
       & info [ "request-timeout" ] ~docv:"SEC"
           ~doc:
             "Drop an accepted connection whose reads or writes stall for \
              $(docv) seconds (default: the PREFDB_REQUEST_TIMEOUT \
              environment variable, else 10).")

(* The served config: defaults (including PREFDB_REQUEST_TIMEOUT),
   overridden by whichever flags were given. *)
let serve_config timeout slow_ms slow_log =
  let c = Server.default_config () in
  {
    Server.request_timeout =
      Option.value timeout ~default:c.Server.request_timeout;
    slow_query_ms =
      (match slow_ms with Some _ -> slow_ms | None -> c.Server.slow_query_ms);
    slow_log =
      (match slow_log with Some _ -> slow_log | None -> c.Server.slow_log);
  }

let init_cmd =
  let run file dir =
    match load file with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok spec -> (
      match Dbio.Store.init dir spec with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok () ->
        Format.printf "initialized %s: %d tuple(s), %d fd(s), %d preference(s)%s@."
          dir
          (Relational.Relation.cardinality spec.IF.relation)
          (List.length spec.IF.fds)
          (List.length spec.IF.prefs)
          (match spec.IF.denials with
          | [] -> ""
          | ds -> Printf.sprintf ", %d denial(s)" (List.length ds));
        0)
  in
  Cmd.v
    (Cmd.info "init"
       ~doc:
         "Create a durable store from an instance file: a binary snapshot \
          (versioned, checksummed, loaded without re-parsing) plus an empty \
          write-ahead log. The store is what 'serve' processes own.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ dir_arg)

let serve_start_cmd =
  let run dir timeout slow_ms slow_log =
    let config = serve_config timeout slow_ms slow_log in
    if not (Sys.file_exists (Dbio.Store.snapshot_path dir)) then begin
      Format.eprintf "error: %s: no store (run 'prefdb init' first)@." dir;
      1
    end
    else if Server.ping dir then begin
      Format.eprintf "error: %s: a server is already running@." dir;
      1
    end
    else
      match Unix.fork () with
      | 0 ->
        (* the daemon: its own session, stdio to the log file *)
        ignore (Unix.setsid ());
        let log =
          Unix.openfile (Server.log_path dir)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        Unix.dup2 devnull Unix.stdin;
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Unix.close devnull;
        Unix.close log;
        (match Server.serve ~config dir with
        | Ok () -> Stdlib.exit 0
        | Error e ->
          prerr_endline ("error: " ^ e);
          Stdlib.exit 1)
      | pid ->
        let rec wait n =
          if Server.ping dir then begin
            Format.printf "server started (pid %d, socket %s)@." pid
              (Server.socket_path dir);
            0
          end
          else if n = 0 then begin
            Format.eprintf "error: server did not come up (see %s)@."
              (Server.log_path dir);
            1
          end
          else begin
            Unix.sleepf 0.1;
            wait (n - 1)
          end
        in
        wait 100
  in
  Cmd.v
    (Cmd.info "start"
       ~doc:
         "Start a server in the background (fork + setsid, stdio to \
          serve.log) and wait until it answers on the socket.")
    Term.(
      const (with_jobs run) $ jobs_arg $ dir_arg $ request_timeout_arg
      $ slow_query_ms_arg $ slow_log_arg)

let read_pid dir =
  match In_channel.with_open_text (Server.pid_path dir) In_channel.input_all with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

let serve_stop_cmd =
  let run dir =
    let pid = read_pid dir in
    match Server.request dir "shutdown" with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok _ ->
      let gone () =
        match pid with
        | Some p -> not (pid_alive p)
        | None -> not (Sys.file_exists (Server.socket_path dir))
      in
      let rec wait n =
        if gone () then begin
          Format.printf "server stopped@.";
          0
        end
        else if n = 0 then begin
          Format.eprintf "error: server acknowledged shutdown but did not exit@.";
          1
        end
        else begin
          Unix.sleepf 0.1;
          wait (n - 1)
        end
      in
      wait 100
  in
  Cmd.v
    (Cmd.info "stop"
       ~doc:"Ask the server to shut down and wait until its process exits.")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg)

let serve_status_cmd =
  let run dir =
    let file_size path =
      match Unix.stat path with
      | st -> Some st.Unix.st_size
      | exception Unix.Unix_error _ -> None
    in
    (match file_size (Dbio.Store.snapshot_path dir) with
    | Some n -> Format.printf "snapshot: %d byte(s)@." n
    | None -> Format.printf "snapshot: missing@.");
    (match file_size (Dbio.Store.wal_path dir) with
    | Some n -> Format.printf "wal:      %d byte(s)@." n
    | None -> Format.printf "wal:      missing@.");
    let pid = read_pid dir in
    let live = Server.ping dir in
    (match (pid, live) with
    | Some p, true -> Format.printf "server:   running (pid %d)@." p
    | None, true -> Format.printf "server:   running (no pid file)@."
    | Some p, false when pid_alive p ->
      Format.printf "server:   pid %d alive but not answering@." p
    | _, false -> Format.printf "server:   not running@.");
    (* a live server also reports its own view: uptime, generation,
       request totals *)
    if live then (
      match Server.request dir "status" with
      | Ok out -> List.iter (Format.printf "  %s@.") (String.split_on_char '\n' out)
      | Error _ -> ());
    if live then 0 else 3
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report the store's files and whether a server answers on the \
          socket. Exits 0 when a server is live, 3 otherwise.")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg)

let serve_call_cmd =
  let cmd_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"CMD"
           ~doc:"Command words, joined with spaces (shell session language).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Use the JSON framing and print the raw response object.")
  in
  let run dir json words =
    let cmd = String.concat " " words in
    if json then (
      match Server.request_json dir cmd with
      | Ok resp ->
        print_endline (Obs.Json.to_string resp);
        (match Obs.Json.member "ok" resp with
        | Some (Obs.Json.Bool true) -> 0
        | _ -> 1)
      | Error e ->
        Format.eprintf "error: %s@." e;
        1)
    else
      match Server.request dir cmd with
      | Ok out ->
        if out <> "" then print_endline out;
        0
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one command to a running server and print its output \
          (exit 1 when the server reports an error).")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg $ json_arg $ cmd_arg)

let serve_cmd =
  let doc =
    "Run or manage a store server: a long-running process owning one warm \
     session (conflict graph, priority and repair caches stay live across \
     requests) behind a unix socket, with every mutation journaled to the \
     write-ahead log before it is acknowledged."
  in
  Cmd.group ~default:(
    let run dir timeout slow_ms slow_log trace_out =
      with_trace trace_out @@ fun () ->
      match Server.serve ~config:(serve_config timeout slow_ms slow_log) dir with
      | Ok () -> 0
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
    in
    Term.(
      const (with_jobs run) $ jobs_arg $ dir_arg $ request_timeout_arg
      $ slow_query_ms_arg $ slow_log_arg $ trace_out_arg))
    (Cmd.info "serve" ~doc)
    [ serve_start_cmd; serve_stop_cmd; serve_status_cmd; serve_call_cmd ]

(* --- metrics / validate-slowlog ------------------------------------------------ *)

let metrics_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the structured JSON form instead of the exposition.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Lint the exposition instead of printing it: every sample \
                preceded by its TYPE line, parsable non-NaN values, no \
                duplicate series, cumulative histogram buckets. Exits \
                non-zero on violation.")
  in
  let run dir json check =
    if check then (
      match Server.request dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok text -> (
        match Obs.Registry.lint text with
        | Ok n ->
          Format.printf "valid Prometheus exposition (%d sample(s))@." n;
          0
        | Error e ->
          Format.eprintf "INVALID exposition: %s@." e;
          1))
    else if json then (
      match Server.request_json dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok resp -> (
        match Obs.Json.member "metrics" resp with
        | Some j ->
          print_endline (Obs.Json.to_string j);
          0
        | None ->
          Format.eprintf "error: response carried no metrics field@.";
          1))
    else
      match Server.request dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok text ->
        print_string text;
        if String.length text > 0 && text.[String.length text - 1] <> '\n' then
          print_newline ();
        0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running server's process metrics: request counts and \
          latency histograms by command, WAL/snapshot/store health, \
          planner fallbacks and cardinality q-error, pool utilization — \
          as Prometheus text exposition (default), structured JSON \
          (--json), or a lint verdict (--check).")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg $ json_arg $ check_arg)

let validate_slowlog_cmd =
  let log_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"LOG"
             ~doc:"Slow-query log written by --slow-query-ms (slow.jsonl).")
  in
  let run path =
    match Shell.Slowlog.validate_file path with
    | Ok n ->
      Format.printf "%s: valid (%d record(s))@." path n;
      0
    | Error e ->
      Format.eprintf "%s: INVALID: %s@." path e;
      1
  in
  Cmd.v
    (Cmd.info "validate-slowlog"
       ~doc:
         "Check a slow-query log's invariants: one JSON object per line \
          carrying the query, verdict, finite wall time and phase spans, \
          with the planner report and its text rendering present \
          together or not at all. Exits non-zero on violation.")
    Term.(const (with_jobs run) $ jobs_arg $ log_file_arg)

(* --- hyper: denial-constraint CQA over the hyperedge substrate ----------------- *)

module Hfamily = Core.Hfamily

(* The denial constraints in force: declared [denial] lines, or — when
   none are declared — the FDs compiled to denial form, so the hyper
   commands answer on any instance file. *)
let denials_of spec =
  match spec.IF.denials with
  | [] ->
    let schema = Relational.Relation.schema spec.IF.relation in
    List.concat_map (Constraints.Denial.of_fd schema) spec.IF.fds
  | dcs -> dcs

let hyper_context spec =
  match Core.Hyper.build (denials_of spec) spec.IF.relation with
  | exception Invalid_argument m -> Error m
  | h -> (
    match IF.to_rule spec with
    | Error e -> Error e
    | Ok rule -> (
      match Core.Hpriority.of_rule h rule with
      | Error e -> Error e
      | Ok p -> Ok (h, p)))

let with_hyper path f =
  match load path with
  | Error e ->
    Format.eprintf "error: %s@." e;
    1
  | Ok spec -> (
    match hyper_context spec with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok (h, p) -> f spec h p)

let hfamily_arg =
  let parse s =
    match Hfamily.name_of_string s with
    | Some f -> Ok f
    | None ->
      Error (`Msg (Printf.sprintf "unknown family %S (use rep|pareto|global)" s))
  in
  Arg.(value & opt (conv (parse, Hfamily.pp_name)) Hfamily.Rep
       & info [ "f"; "family" ] ~docv:"FAMILY"
           ~doc:
             "Preferred-repair family on the hyperedge substrate: rep, \
              pareto or global (default rep).")

let hyper_info_cmd =
  let run path =
    with_hyper path (fun spec h p ->
        let dcs = denials_of spec in
        Format.printf "denials:    %d%s@." (List.length dcs)
          (if spec.IF.denials = [] && dcs <> [] then " (compiled from the fds)"
           else "");
        List.iter
          (fun dc -> Format.printf "  %s@." (Constraints.Denial.to_string dc))
          dcs;
        let d = Core.Hdecompose.make h p in
        Format.printf "facts:      %d live@."
          (Graphs.Vset.cardinal (Core.Hyper.live h));
        Format.printf "hyperedges: %d@."
          (Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h));
        Format.printf "oriented:   %d arc(s)@." (Core.Hpriority.arc_count p);
        Format.printf "components: %d (largest %d)@."
          (Core.Hdecompose.component_count d)
          (Core.Hdecompose.max_component d);
        Format.printf "consistent: %b@." (Core.Hyper.is_consistent h);
        0)
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Show the denial constraints in force and the conflict \
          hypergraph they induce: hyperedges, oriented pairs, components.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg)

let hyper_count_cmd =
  let run path family trace_out =
    with_trace trace_out @@ fun () ->
    with_hyper path (fun _spec h p ->
        let d = Core.Hdecompose.make h p in
        Format.printf "%s: %d preferred repair(s) across %d component(s)@."
          (Hfamily.name_to_string family)
          (Core.Hdecompose.count family d)
          (Core.Hdecompose.component_count d);
        0)
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:
         "Count the preferred repairs of the denial-constraint instance \
          (component-factorized on the hypergraph).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ hfamily_arg $ trace_out_arg)

let hyper_repairs_cmd =
  let run path family limit =
    with_hyper path (fun _spec h p ->
        let repairs = Hfamily.repairs family h p in
        Format.printf "%s: %d preferred repair(s)@."
          (Hfamily.name_to_string family)
          (List.length repairs);
        List.iteri
          (fun i s ->
            if i < limit then begin
              Format.printf "--- repair %d ---@." (i + 1);
              Relational.Relation.iter
                (fun t -> Format.printf "  %a@." Relational.Tuple.pp t)
                (Core.Hyper.to_relation h s)
            end)
          repairs;
        if List.length repairs > limit then
          Format.printf "... (%d more; raise --limit)@."
            (List.length repairs - limit);
        0)
  in
  Cmd.v
    (Cmd.info "repairs"
       ~doc:
         "Enumerate the preferred repairs (maximal independent sets of \
          the conflict hypergraph surviving the family's filter).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ hfamily_arg $ limit_arg)

let hyper_check_cmd =
  let candidate_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CANDIDATE"
             ~doc:"Instance file holding the candidate repair (same schema).")
  in
  let run path candidate family =
    with_hyper path (fun _spec h p ->
        match load candidate with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok cand -> (
          match Hfamily.check_relation family h p cand.IF.relation with
          | exception Invalid_argument m ->
            Format.eprintf "error: %s@." m;
            1
          | ok ->
            Format.printf "%s-repair check: %s@."
              (Hfamily.name_to_string family)
              (if ok then "YES" else "NO");
            if ok then 0 else 2))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Is the candidate a preferred repair of the denial-constraint \
          instance? Exits 0 for yes, 2 for no.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ candidate_arg $ hfamily_arg)

let hyper_query_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"A closed query (shell query language).")
  in
  let run path family text trace_out =
    with_trace trace_out @@ fun () ->
    with_hyper path (fun spec h p ->
        match Shell.Session.parse_query spec text with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok q ->
          if not (Query.Ast.is_closed q) then begin
            Format.eprintf "error: hyper query requires a closed query@.";
            1
          end
          else begin
            let d = Core.Hdecompose.make h p in
            Format.printf "%s-consistent answer: %s@."
              (Hfamily.name_to_string family)
              (Core.Cqa.certainty_to_string (Core.Hdecompose.certainty family d q));
            0
          end)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Compute the preferred consistent answer to a closed query under \
          denial constraints (true in every preferred repair, false in \
          every one, or ambiguous).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ hfamily_arg $ query_arg
          $ trace_out_arg)

let hyper_cmd =
  Cmd.group
    (Cmd.info "hyper"
       ~doc:
         "Denial-constraint CQA: the conflict hypergraph substrate (§6), \
          with Pareto- and globally-optimal repair families.")
    [ hyper_info_cmd; hyper_count_cmd; hyper_repairs_cmd; hyper_check_cmd;
      hyper_query_cmd ]

(* --- main --------------------------------------------------------------------- *)

let () =
  (* a typo'd PREFDB_JOBS would otherwise be silently ignored and the
     run would proceed on the default domain count *)
  (match Core.Pool.env_jobs_error () with
  | Some msg ->
    Format.eprintf "prefdb: %s@." msg;
    exit 124
  | None -> ());
  (match Server.env_request_timeout_error () with
  | Some msg ->
    Format.eprintf "prefdb: %s@." msg;
    exit 124
  | None -> ());
  let doc = "preference-driven querying of inconsistent relational databases" in
  let info = Cmd.info "prefdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            info_cmd; stats_cmd; repairs_cmd; check_cmd; count_cmd; clean_cmd;
            query_cmd; explain_cmd; plan_cmd; status_cmd; facts_cmd; aggregate_cmd;
            update_cmd; shell_cmd; profile_cmd; validate_trace_cmd;
            validate_slowlog_cmd; init_cmd; serve_cmd; metrics_cmd; hyper_cmd;
          ]))
