(* Tests for the interactive session interpreter. *)

module Session = Shell.Session
module Family = Core.Family

let check = Alcotest.check

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let mgr_file () =
  let path = Filename.temp_file "prefdb" ".pdb" in
  let spec =
    let rel, fds, prov = Testlib.mgr () in
    {
      Dbio.Instance_format.relation = rel;
      fds;
      denials = [];
      provenance = prov;
      prefs =
        [
          Dbio.Instance_format.Source_pair ("s1", "s3");
          Dbio.Instance_format.Source_pair ("s2", "s3");
        ];
    }
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Dbio.Instance_format.print spec));
  path

let load () =
  let st, msg = Session.exec Session.initial ("load " ^ mgr_file ()) in
  Alcotest.(check bool) "load succeeded" true (contains ~needle:"4 tuples" msg);
  st

let test_initial_state () =
  Alcotest.(check bool) "starts with C-Rep" true
    (Session.family Session.initial = Family.C);
  Alcotest.(check bool) "nothing loaded" true (Session.loaded Session.initial = None);
  let _, msg = Session.exec Session.initial "info" in
  Alcotest.(check bool) "needs a load" true (contains ~needle:"no instance" msg)

let test_load_and_info () =
  let st = load () in
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "mentions conflicts" true (contains ~needle:"conflicts: 3" info);
  Alcotest.(check bool) "mentions schema" true (contains ~needle:"Mgr" info);
  Alcotest.(check bool) "reports the intern dictionary" true
    (contains ~needle:"interned: " info)

let test_family_switch () =
  let st = load () in
  let st, msg = Session.exec st "family g" in
  Alcotest.(check bool) "switched" true (contains ~needle:"G-Rep" msg);
  Alcotest.(check bool) "state updated" true (Session.family st = Family.G);
  let _, err = Session.exec st "family bogus" in
  Alcotest.(check bool) "bad family" true (contains ~needle:"unknown family" err)

let test_repairs_and_count () =
  let st = load () in
  let _, out = Session.exec st "repairs" in
  Alcotest.(check bool) "two C-repairs" true
    (contains ~needle:"2 preferred repair(s)" out);
  let _, out = Session.exec st "count" in
  Alcotest.(check bool) "count agrees" true
    (contains ~needle:"2 preferred repair(s)" out)

let test_query_commands () =
  let st = load () in
  let _, out =
    Session.exec st
      "query Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "certain disjunction" true
    (contains ~needle:"certainly true" out);
  let _, out = Session.exec st "query exists d, s, r. Mgr('Mary', d, s, r)" in
  Alcotest.(check bool) "quantified query" true
    (contains ~needle:"certainly true" out);
  let _, out = Session.exec st "query Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query" true (contains ~needle:"certain answer" out);
  let _, out = Session.exec st "query Mgr(" in
  Alcotest.(check bool) "parse error surfaces" true (contains ~needle:"error" out)

let test_qtrace () =
  let st = load () in
  let _, out =
    Session.exec st
      "qtrace Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "verdict reported" true
    (contains ~needle:"certainly true" out);
  Alcotest.(check bool) "component breakdown" true
    (contains ~needle:"components:" out);
  Alcotest.(check bool) "cache counters" true
    (contains ~needle:"component cache" out);
  let _, err = Session.exec st "qtrace Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query rejected" true
    (contains ~needle:"closed query" err);
  let _, usage = Session.exec st "qtrace" in
  Alcotest.(check bool) "bare qtrace prints usage" true
    (contains ~needle:"usage" usage)

let test_explain_and_status () =
  let st = load () in
  let _, out = Session.exec st "explain Mgr('Mary', 'IT', 20000, 1)" in
  Alcotest.(check bool) "ambiguous with witnesses" true
    (contains ~needle:"holds in" out && contains ~needle:"fails in" out);
  let _, out = Session.exec st "status 'Mary' 'R&D' 40000 3" in
  Alcotest.(check bool) "status renders" true (contains ~needle:"conflicts with" out);
  let _, out = Session.exec st "status 'Ghost' 'X' 1 1" in
  Alcotest.(check bool) "unknown tuple" true (contains ~needle:"error" out)

let test_facts_and_aggregate () =
  let st = load () in
  let _, out = Session.exec st "facts" in
  Alcotest.(check bool) "all disputed" true (contains ~needle:"disputed (4)" out);
  let _, out = Session.exec st "aggregate sum:Salary" in
  Alcotest.(check bool) "range" true (contains ~needle:"SUM(Salary)" out);
  let _, out = Session.exec st "aggregate bogus" in
  Alcotest.(check bool) "bad aggregate" true (contains ~needle:"error" out)

let test_clean () =
  let st = load () in
  let _, out = Session.exec st "clean" in
  Alcotest.(check bool) "reports kept tuples" true
    (contains ~needle:"keeps 2 tuples" out);
  let _, out = Session.exec st "trace" in
  Alcotest.(check bool) "trace shows steps" true (contains ~needle:"step 1" out);
  let _, out = Session.exec st "stats" in
  Alcotest.(check bool) "stats summarize" true
    (contains ~needle:"preferred repairs:      2" out)

let test_prefer_and_save () =
  let st = load () in
  (* before: the s1-vs-s2 conflict is unresolved; Q2 disjunction already
     certain, but the single fact Mary-R&D is ambiguous *)
  let _, before = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "ambiguous before" true (contains ~needle:"ambiguous" before);
  (* adding s1 > s2 orients the remaining conflict *)
  let st, msg = Session.exec st "prefer source s1 > s2" in
  Alcotest.(check bool) "3 oriented now" true (contains ~needle:"3 conflict" msg);
  let _, after = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "certain after" true (contains ~needle:"certainly true" after);
  (* bad preferences are rejected and do not corrupt the state *)
  let st, err = Session.exec st "prefer source s2 > s1" in
  Alcotest.(check bool) "cyclic source order rejected" true
    (contains ~needle:"error" err);
  let _, still = Session.exec st "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "state intact" true (contains ~needle:"certainly true" still);
  (* save and reload *)
  let path = Filename.temp_file "prefdb" ".pdb" in
  let st, msg = Session.exec st ("save " ^ path) in
  Alcotest.(check bool) "saved" true (contains ~needle:"saved" msg);
  let st2, _ = Session.exec st ("load " ^ path) in
  let _, reloaded = Session.exec st2 "query Mgr('Mary', 'R&D', 40000, 3)" in
  Alcotest.(check bool) "preferences survive the round-trip" true
    (contains ~needle:"certainly true" reloaded)

let test_insert_delete_undo () =
  let st = load () in
  let _, count0 = Session.exec st "count" in
  (* a fifth Mary violates the key FD against both existing Mary tuples *)
  let st, out = Session.exec st "insert 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "insert reports the batch" true
    (contains ~needle:"+1 tuple(s)" out);
  Alcotest.(check bool) "insert creates conflict edges" true
    (not (contains ~needle:"(0 conflict edge(s) added" out));
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "info sees 5 tuples" true (contains ~needle:"tuples:   5" info);
  (* inserting the same tuple again is rejected, state intact *)
  let st, err = Session.exec st "insert 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "duplicate insert rejected" true
    (Session.is_error_output err);
  (* deleting an absent tuple is rejected too *)
  let st, err = Session.exec st "delete 'Ghost' 'X' 1 1" in
  Alcotest.(check bool) "absent delete rejected" true (Session.is_error_output err);
  (* delete the insertion, then undo both batches: back to the start *)
  let st, out = Session.exec st "delete 'Mary' 'HR' 1 1" in
  Alcotest.(check bool) "delete reports the batch" true
    (contains ~needle:"-1 tuple(s)" out);
  let st, _ = Session.exec st "undo" in
  let _, info = Session.exec st "info" in
  Alcotest.(check bool) "undo restores the insertion" true
    (contains ~needle:"tuples:   5" info);
  let st, _ = Session.exec st "undo" in
  let _, count1 = Session.exec st "count" in
  check Alcotest.string "counts restored after full rewind" count0 count1;
  let _, err = Session.exec st "undo" in
  Alcotest.(check bool) "undo past the beginning errors" true
    (Session.is_error_output err)

let test_save_load_round_trip () =
  (* property: save → load → save is a fixed point of the instance
     format, and the reloaded session answers exactly like the session
     that saved — including after incremental updates *)
  let st = load () in
  let st, _ = Session.exec st "insert 'Zoe' 'HR' 1 1" in
  let st, _ = Session.exec st "delete 'John' 'PR' 30000 4" in
  let p1 = Filename.temp_file "prefdb" ".pdb" in
  let st, msg = Session.exec st ("save " ^ p1) in
  Alcotest.(check bool) "saved" true (contains ~needle:"saved" msg);
  let st2, msg = Session.exec Session.initial ("load " ^ p1) in
  Alcotest.(check bool) "reloaded" true (contains ~needle:"4 tuples" msg);
  let p2 = Filename.temp_file "prefdb" ".pdb" in
  let _, _ = Session.exec st2 ("save " ^ p2) in
  let slurp p = In_channel.with_open_text p In_channel.input_all in
  check Alcotest.string "save -> load -> save is a fixed point" (slurp p1)
    (slurp p2);
  List.iter
    (fun cmd ->
      let _, a = Session.exec st cmd in
      let _, b = Session.exec st2 cmd in
      check Alcotest.string ("round-trip preserves '" ^ cmd ^ "'") a b)
    [
      "info"; "count"; "facts"; "repairs";
      "query Mgr('Zoe', 'HR', 1, 1)";
      "query exists d, s, r. Mgr('Mary', d, s, r)";
    ]

let test_unknown_and_help () =
  let st = load () in
  let _, out = Session.exec st "frobnicate" in
  Alcotest.(check bool) "unknown command" true (contains ~needle:"unknown command" out);
  let _, out = Session.exec st "help" in
  Alcotest.(check bool) "help lists commands" true (contains ~needle:"aggregate" out);
  let _, out = Session.exec st "" in
  Alcotest.(check bool) "empty line" true (out = "")

let test_profile_and_telemetry () =
  let st = load () in
  (* profile: verdict plus a span tree, no session sink required *)
  let _, out =
    Session.exec st
      "profile Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Alcotest.(check bool) "verdict reported" true
    (contains ~needle:"certainly true" out);
  Alcotest.(check bool) "profile tree rendered" true
    (contains ~needle:"cqa.certainty" out);
  Alcotest.(check bool) "route recorded" true
    (contains ~needle:"route=" out);
  let _, err = Session.exec st "profile Mgr(n, 'R&D', s, r)" in
  Alcotest.(check bool) "open query rejected" true
    (contains ~needle:"closed query" err);
  let _, usage = Session.exec st "profile" in
  Alcotest.(check bool) "bare profile prints usage" true
    (contains ~needle:"usage" usage);
  (* with a session-wide sink installed (the shell's --trace-out path),
     every command runs inside a shell.<cmd> span and the commands that
     build their own local trees tee rather than steal the stream *)
  let buf = Obs.Sink.Memory.create () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  let st, _ = Session.exec st "stats" in
  let st, _ =
    Session.exec st "qtrace Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  let _, out =
    Session.exec st
      "profile Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  Obs.Span.set_sink None;
  Alcotest.(check bool) "profile output intact under tee" true
    (contains ~needle:"cqa.certainty" out);
  let names =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.phase with Obs.Event.Begin -> Some e.name | _ -> None)
      (Obs.Sink.Memory.events buf)
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " captured") true
        (List.mem needle names))
    [ "shell.stats"; "shell.qtrace"; "shell.profile"; "cqa.certainty" ];
  match Obs.Export.validate_jsonl (Obs.Export.jsonl_string (Obs.Sink.Memory.events buf)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("session trace invalid: " ^ e)

(* A query that parses but does not bind to the loaded relation is an
   error reply on every query surface, never an escaping exception. *)
let test_unbound_queries () =
  let st = load () in
  List.iter
    (fun cmd ->
      List.iter
        (fun (q, needle) ->
          let _, out = Session.exec st (cmd ^ " " ^ q) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s -> error" cmd q)
            true
            (Session.is_error_output out && contains ~needle out))
        [
          ("exists x,y. Mgr('Mary',x,y)", "arity 4");
          ("exists x. Foo(x)", "unknown relation");
        ])
    [ "query"; "qtrace"; "profile"; "explain"; "hyper query" ]

let suite =
  [
    ("unbound queries are errors", `Quick, test_unbound_queries);
    ("initial state", `Quick, test_initial_state);
    ("load and info", `Quick, test_load_and_info);
    ("family switching", `Quick, test_family_switch);
    ("repairs and count", `Quick, test_repairs_and_count);
    ("query command", `Quick, test_query_commands);
    ("qtrace command", `Quick, test_qtrace);
    ("explain and status", `Quick, test_explain_and_status);
    ("facts and aggregate", `Quick, test_facts_and_aggregate);
    ("clean", `Quick, test_clean);
    ("prefer and save", `Quick, test_prefer_and_save);
    ("insert, delete, undo", `Quick, test_insert_delete_undo);
    ("save/load round-trip", `Quick, test_save_load_round_trip);
    ("unknown commands and help", `Quick, test_unknown_and_help);
    ("profile command and session telemetry", `Quick, test_profile_and_telemetry);
  ]
