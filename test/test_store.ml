(* The durable store: binary snapshots, the write-ahead log, crash
   recovery and the serve loop.

   The recovery tests exercise the bit-identity contract: after a
   simulated kill -9 (the log truncated at arbitrary byte boundaries),
   reopening the store must reproduce the pre-crash state exactly —
   slot counter, fact-id → tuple mapping, live set and repair counts —
   for the longest fully-fsynced prefix of the log. *)

open Relational
module IF = Dbio.Instance_format
module Store = Dbio.Store
module Wal = Dbio.Wal
module Snapshot = Dbio.Snapshot
module Delta = Core.Delta

let check = Alcotest.check
let family = Core.Family.C

let mgr_text =
  {|relation Mgr(Name:name, Dept:name, Salary:int)
fd Dept -> Name Salary
tuple 'Mary' 'R&D' 40000  source=s1
tuple 'John' 'R&D' 10000  source=s2
tuple 'Mary' 'IT' 20000  source=s3
prefer source s1 > s3
|}

let mgr_spec () = Result.get_ok (IF.parse mgr_text)

let tuple name dept salary =
  Tuple.make [ Value.Name name; Value.Name dept; Value.Int salary ]

let temp_dir () =
  let path = Filename.temp_file "prefdb_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Everything observable about an instance's identity layer. *)
let state_fingerprint rel =
  let slots =
    List.init (Relation.slot_count rel) (fun i ->
        (Tuple.to_string (Relation.fact rel i), Graphs.Vset.mem i (Relation.live_ids rel)))
  in
  (Relation.slot_count rel, slots)

let check_same_state msg expected rel =
  let en, eslots = expected in
  let n, slots = state_fingerprint rel in
  check Alcotest.int (msg ^ ": slot counter") en n;
  List.iteri
    (fun i (et, elive) ->
      let t, live = List.nth slots i in
      check Alcotest.string (Printf.sprintf "%s: fact %d" msg i) et t;
      check Alcotest.bool (Printf.sprintf "%s: live %d" msg i) elive live)
    eslots

(* --- snapshots ---------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let spec = mgr_spec () in
  let spec2 = fst (Result.get_ok (Snapshot.decode (Snapshot.encode ~generation:0 spec))) in
  check Alcotest.bool "relation equal" true
    (Relation.equal spec.IF.relation spec2.IF.relation);
  check Alcotest.int "fds" 1 (List.length spec2.IF.fds);
  check Alcotest.int "prefs" 1 (List.length spec2.IF.prefs);
  check Alcotest.bool "provenance equal" true
    (Provenance.bindings spec.IF.provenance
    = Provenance.bindings spec2.IF.provenance)

let test_snapshot_preserves_tombstones () =
  let spec = mgr_spec () in
  (* tombstone one slot, append another: ids must survive the disk trip *)
  let rel =
    Relation.add
      (Relation.remove spec.IF.relation (tuple "John" "R&D" 10000))
      (tuple "Zed" "PR" 7)
  in
  let spec = { spec with IF.relation = rel } in
  let spec2 = fst (Result.get_ok (Snapshot.decode (Snapshot.encode ~generation:0 spec))) in
  check_same_state "reload" (state_fingerprint rel) spec2.IF.relation;
  check Alcotest.bool "live ids equal" true
    (Graphs.Vset.equal (Relation.live_ids rel)
       (Relation.live_ids spec2.IF.relation))

let test_snapshot_rejects_corruption () =
  let image = Snapshot.encode ~generation:0 (mgr_spec ()) in
  let expect_error what image =
    match Snapshot.decode image with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt snapshot decoded" what
  in
  expect_error "truncated header" (String.sub image 0 10);
  expect_error "truncated body" (String.sub image 0 (String.length image - 3));
  expect_error "bad magic" ("XREFDBS1" ^ String.sub image 8 (String.length image - 8));
  let flipped = Bytes.of_string image in
  let mid = String.length image - 10 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  expect_error "flipped body byte" (Bytes.to_string flipped);
  expect_error "trailing garbage" (image ^ "x")

let test_snapshot_load_keeps_intern_coherent () =
  (* loading must remap file-local dictionary ids to the process
     dictionary: a value looked up by string afterwards must hit the
     loaded tuples *)
  let spec2 = fst (Result.get_ok (Snapshot.decode (Snapshot.encode ~generation:0 (mgr_spec ())))) in
  check Alcotest.bool "membership by fresh tuple" true
    (Relation.mem spec2.IF.relation (tuple "Mary" "R&D" 40000))

(* A crafted image must be rejected before its declared counts force
   multi-gigabyte allocations: both counts are bounded by the bytes
   that could actually back them, so a CRC-valid body with an absurd
   count fails as corrupt instead of raising [Out_of_memory]. *)
let test_snapshot_rejects_oversized_counts () =
  let schema = Relation.schema (mgr_spec ()).IF.relation in
  let mk_image body =
    let out = Buffer.create 64 in
    Buffer.add_string out Snapshot.magic;
    Dbio.Binio.w_u32 out Snapshot.version;
    Dbio.Binio.w_i64 out 0 (* generation *);
    Dbio.Binio.w_i64 out (String.length body);
    Dbio.Binio.w_u32 out
      (Dbio.Binio.crc32 body ~pos:0 ~len:(String.length body));
    Buffer.add_string out body;
    Buffer.contents out
  in
  let expect_error what body =
    match Snapshot.decode (mk_image body) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt snapshot decoded" what
  in
  (* dictionary count far beyond the two bytes that follow it *)
  let b = Buffer.create 64 in
  Dbio.Codec.w_schema b schema;
  Dbio.Binio.w_u32 b 0xFFFF_FFF0;
  Buffer.add_string b "\x00\x00";
  expect_error "oversized dictionary count" (Buffer.contents b);
  (* slot count no 4-byte fact section can hold *)
  let b = Buffer.create 64 in
  Dbio.Codec.w_schema b schema;
  Dbio.Binio.w_u32 b 0 (* empty dictionary *);
  Dbio.Binio.w_u32 b 0xFFFF_FFF0 (* slots *);
  Dbio.Binio.w_u32 b 4 (* section length *);
  Buffer.add_string b "\x00\x00\x00\x00";
  expect_error "oversized slot count" (Buffer.contents b)

(* --- denial constraints through the binary layer ------------------------- *)

let denial_text =
  {|relation Emp(Name:name, Dept:name, Cap:int)
denial 'no-dup' forall 2 : t1.Name = t2.Name and t1.Dept != t2.Dept
denial 'cap' forall 1 : t1.Cap > 100
tuple 'Mary' 'R&D' 10
tuple 'Mary' 'IT' 20
tuple 'John' 'PR' 30
|}

let denial_spec () = Result.get_ok (IF.parse denial_text)
let denial_strings spec = List.map Constraints.Denial.to_string spec.IF.denials

let test_snapshot_denials_roundtrip () =
  let spec = denial_spec () in
  let spec2 =
    fst (Result.get_ok (Snapshot.decode (Snapshot.encode ~generation:0 spec)))
  in
  check
    Alcotest.(list string)
    "denials survive the binary trip" (denial_strings spec)
    (denial_strings spec2);
  check Alcotest.bool "relation equal" true
    (Relation.equal spec.IF.relation spec2.IF.relation)

(* Kill -9 over a denial-constrained store: the recovered spec must carry
   the denial list, and the hyperedge substrate rebuilt from it must
   match the pre-crash one at every fsync point. *)
let test_kill9_denial_recovery () =
  let dir = temp_dir () in
  let spec = denial_spec () in
  Result.get_ok (Store.init dir spec);
  let store = Result.get_ok (Store.open_ dir) in
  let engine = Store.engine store in
  let etuple name dept cap =
    Tuple.make [ Value.Name name; Value.Name dept; Value.Int cap ]
  in
  let hyper_fingerprint rel =
    let h = Core.Hyper.build spec.IF.denials rel in
    ( Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h),
      Core.Hdecompose.count Core.Hfamily.Rep
        (Core.Hdecompose.make h (Core.Hpriority.empty h)) )
  in
  let mutations =
    [
      (* a second John: trips 'no-dup' *)
      Wal.Batch [ Delta.Insert (etuple "John" "IT" 5) ];
      (* trips the unary 'cap' constraint *)
      Wal.Batch [ Delta.Insert (etuple "Ann" "HQ" 500) ];
      Wal.Batch [ Delta.Delete (etuple "Mary" "IT" 20) ];
      Wal.Undo;
    ]
  in
  let observe () =
    ( (Unix.stat (Store.wal_path dir)).Unix.st_size,
      state_fingerprint (Delta.relation engine),
      hyper_fingerprint (Delta.relation engine) )
  in
  let checkpoints = ref [ observe () ] in
  List.iter
    (fun entry ->
      (match entry with
      | Wal.Batch ops -> ignore (Result.get_ok (Delta.apply engine ops))
      | Wal.Undo -> ignore (Result.get_ok (Delta.undo engine))
      | Wal.Prefer _ -> assert false);
      Result.get_ok (Store.log store entry);
      checkpoints := observe () :: !checkpoints)
    mutations;
  Store.close store;
  let checkpoints = List.rev !checkpoints in
  let wal_image =
    In_channel.with_open_bin (Store.wal_path dir) In_channel.input_all
  in
  let reopen_at msg cut expected_state (expected_edges, expected_count) =
    let crash_dir = temp_dir () in
    Unix.mkdir crash_dir 0o755;
    let copy src dst =
      Out_channel.with_open_bin dst (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin src In_channel.input_all))
    in
    copy (Store.snapshot_path dir) (Store.snapshot_path crash_dir);
    Out_channel.with_open_bin (Store.wal_path crash_dir) (fun oc ->
        Out_channel.output_string oc (String.sub wal_image 0 cut));
    let recovered = Result.get_ok (Store.open_ crash_dir) in
    check
      Alcotest.(list string)
      (msg ^ ": denials recovered") (denial_strings spec)
      (denial_strings (Store.spec recovered));
    let rel = Delta.relation (Store.engine recovered) in
    check_same_state msg expected_state rel;
    let edges, count = hyper_fingerprint rel in
    check Alcotest.int (msg ^ ": hyperedges") expected_edges edges;
    check Alcotest.int (msg ^ ": repair count") expected_count count;
    Store.close recovered;
    rm_rf crash_dir
  in
  List.iteri
    (fun i (size, state, hfp) ->
      reopen_at (Printf.sprintf "denial clean cut %d" i) size state hfp;
      if size + 5 <= String.length wal_image then
        reopen_at (Printf.sprintf "denial torn cut %d" i) (size + 5) state hfp)
    checkpoints;
  rm_rf dir

let test_snapshot_generation_roundtrip () =
  let _, gen =
    Result.get_ok (Snapshot.decode (Snapshot.encode ~generation:7 (mgr_spec ())))
  in
  check Alcotest.int "generation survives the trip" 7 gen

(* --- the write-ahead log ------------------------------------------------ *)

let entry_equal a b =
  match (a, b) with
  | Wal.Undo, Wal.Undo -> true
  | Wal.Prefer p, Wal.Prefer q -> p = q
  | Wal.Batch xs, Wal.Batch ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun x y ->
           match (x, y) with
           | Delta.Insert s, Delta.Insert t | Delta.Delete s, Delta.Delete t ->
             Tuple.equal s t
           | _ -> false)
         xs ys
  | _ -> false

let sample_entries () =
  [
    Wal.Batch [ Delta.Insert (tuple "Zed" "PR" 7) ];
    Wal.Batch
      [ Delta.Delete (tuple "Zed" "PR" 7); Delta.Insert (tuple "Ann" "IT" 9) ];
    Wal.Undo;
    Wal.Prefer IF.Newest;
    Wal.Prefer (IF.Source_pair ("s1", "s2"));
    Wal.Prefer (IF.Attribute ("Salary", `Larger));
  ]

let test_wal_roundtrip () =
  let path = Filename.temp_file "prefdb_wal" ".log" in
  let wal = Result.get_ok (Wal.open_append path) in
  List.iter (fun e -> Result.get_ok (Wal.append wal ~gen:3 e)) (sample_entries ());
  Wal.close wal;
  let entries, _, torn = Result.get_ok (Wal.replay path) in
  Sys.remove path;
  check Alcotest.int "no torn bytes" 0 torn;
  check Alcotest.int "all entries" (List.length (sample_entries ()))
    (List.length entries);
  List.iter2
    (fun e (g, f) ->
      check Alcotest.int "generation round-trips" 3 g;
      check Alcotest.bool "entry round-trips" true (entry_equal e f))
    (sample_entries ()) entries

let test_wal_detects_torn_tail () =
  let path = Filename.temp_file "prefdb_wal" ".log" in
  let wal = Result.get_ok (Wal.open_append path) in
  Result.get_ok (Wal.append wal ~gen:0 (Wal.Batch [ Delta.Insert (tuple "A" "B" 1) ]));
  let clean = Wal.size wal in
  Result.get_ok (Wal.append wal ~gen:0 Wal.Undo);
  Wal.close wal;
  (* overwrite one byte of the second record's payload *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let bytes = Bytes.of_string data in
  Bytes.set bytes (clean + 9) 'z';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let entries, clean_len, torn = Result.get_ok (Wal.replay path) in
  Sys.remove path;
  check Alcotest.int "one clean record" 1 (List.length entries);
  check Alcotest.int "clean prefix ends before the torn record" clean clean_len;
  check Alcotest.bool "torn bytes reported" true (torn > 0)

(* --- crash recovery ----------------------------------------------------- *)

(* Drive a store through a mutation history, remembering the log size
   and expected state after every fsync point; then simulate kill -9 at
   every byte boundary of interest — clean record boundaries and
   mid-record cuts — and assert the reopened store matches the state of
   the longest fully-written prefix. *)
let test_kill9_recovery () =
  let dir = temp_dir () in
  let spec = mgr_spec () in
  Result.get_ok (Store.init dir spec);
  let store = Result.get_ok (Store.open_ dir) in
  let engine = Store.engine store in
  let mutations =
    [
      Wal.Batch [ Delta.Insert (tuple "Zed" "PR" 7) ];
      Wal.Batch
        [ Delta.Delete (tuple "John" "R&D" 10000) ];
      Wal.Undo;
      Wal.Prefer (IF.Source_pair ("s2", "s3"));
      Wal.Batch [ Delta.Insert (tuple "Ann" "R&D" 50000) ];
    ]
  in
  (* expected state + wal size after each fsync point; index 0 = fresh *)
  let engine_ref = ref engine in
  let spec_ref = ref (Store.spec store) in
  let observe () =
    ( (Unix.stat (Store.wal_path dir)).Unix.st_size,
      state_fingerprint (Delta.relation !engine_ref),
      Core.Decompose.count family (Delta.decompose !engine_ref) )
  in
  let checkpoints = ref [ observe () ] in
  List.iter
    (fun entry ->
      (match entry with
      | Wal.Batch ops -> ignore (Result.get_ok (Delta.apply !engine_ref ops))
      | Wal.Undo -> ignore (Result.get_ok (Delta.undo !engine_ref))
      | Wal.Prefer p ->
        let spec' =
          {
            !spec_ref with
            IF.prefs = !spec_ref.IF.prefs @ [ p ];
            IF.relation = Delta.relation !engine_ref;
          }
        in
        spec_ref := spec';
        engine_ref :=
          Result.get_ok
            (Core.Delta.create
               ~rule:(Result.get_ok (IF.to_rule spec'))
               spec'.IF.fds spec'.IF.relation));
      Result.get_ok (Store.log store entry);
      checkpoints := observe () :: !checkpoints)
    mutations;
  Store.close store;
  let checkpoints = List.rev !checkpoints in
  let wal_image =
    In_channel.with_open_bin (Store.wal_path dir) In_channel.input_all
  in
  let reopen_at msg cut expected_fingerprint expected_count =
    let crash_dir = temp_dir () in
    Unix.mkdir crash_dir 0o755;
    let copy src dst =
      Out_channel.with_open_bin dst (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin src In_channel.input_all))
    in
    copy (Store.snapshot_path dir) (Store.snapshot_path crash_dir);
    Out_channel.with_open_bin (Store.wal_path crash_dir) (fun oc ->
        Out_channel.output_string oc (String.sub wal_image 0 cut));
    let recovered = Result.get_ok (Store.open_ crash_dir) in
    check_same_state msg expected_fingerprint
      (Delta.relation (Store.engine recovered));
    check Alcotest.int (msg ^ ": repair count") expected_count
      (Core.Decompose.count family (Delta.decompose (Store.engine recovered)));
    Store.close recovered;
    rm_rf crash_dir
  in
  List.iteri
    (fun i (size, fingerprint, count) ->
      (* a clean cut exactly at this fsync point *)
      reopen_at (Printf.sprintf "clean cut %d" i) size fingerprint count;
      (* a torn cut a few bytes into the next record recovers to the
         same state *)
      if size + 5 <= String.length wal_image then
        reopen_at (Printf.sprintf "torn cut %d" i) (size + 5) fingerprint count)
    checkpoints;
  rm_rf dir

let test_checkpoint_truncates () =
  let dir = temp_dir () in
  Result.get_ok (Store.init dir (mgr_spec ()));
  let store = Result.get_ok (Store.open_ dir) in
  let engine = Store.engine store in
  ignore
    (Result.get_ok (Delta.apply engine [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  Result.get_ok (Store.log store (Wal.Batch [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  check Alcotest.int "one wal record" 1 (Store.wal_records store);
  let spec' =
    { (Store.spec store) with IF.relation = Delta.relation engine }
  in
  Result.get_ok (Store.checkpoint store spec');
  check Alcotest.int "wal empty after checkpoint" 0 (Store.wal_records store);
  Store.close store;
  (* reopening sees the checkpointed state with no replay *)
  let store2 = Result.get_ok (Store.open_ dir) in
  check Alcotest.int "no records replayed" 0 (Store.wal_records store2);
  check_same_state "checkpointed state"
    (state_fingerprint (Delta.relation engine))
    (Delta.relation (Store.engine store2));
  Store.close store2;
  rm_rf dir

(* The regression the review caught: insert -> snapshot -> undo used to
   journal an [Undo] that a reopened store (whose engine starts at the
   snapshot, with empty history) could not replay — bricking the store
   with no crash involved. The snapshot is now the undo horizon: such
   an undo is rejected at append time, and reopening always works. *)
let test_checkpoint_is_undo_horizon () =
  let dir = temp_dir () in
  Result.get_ok (Store.init dir (mgr_spec ()));
  let store = Result.get_ok (Store.open_ dir) in
  let engine = Store.engine store in
  ignore
    (Result.get_ok (Delta.apply engine [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  Result.get_ok
    (Store.log store (Wal.Batch [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  let spec' = { (Store.spec store) with IF.relation = Delta.relation engine } in
  Result.get_ok (Store.checkpoint store spec');
  check Alcotest.int "generation advanced" 1 (Store.generation store);
  (* an undo reverting past the snapshot cannot re-apply on recovery:
     it must be refused here, not explode at the next open *)
  (match Store.log store Wal.Undo with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undo past the checkpoint was journaled");
  (* undo of a post-checkpoint batch is journalable as ever *)
  ignore
    (Result.get_ok (Delta.apply engine [ Delta.Insert (tuple "Ann" "IT" 9) ]));
  Result.get_ok
    (Store.log store (Wal.Batch [ Delta.Insert (tuple "Ann" "IT" 9) ]));
  Result.get_ok (Store.log store Wal.Undo);
  ignore (Result.get_ok (Delta.undo engine));
  let expected = state_fingerprint (Delta.relation engine) in
  Store.close store;
  let store2 = Result.get_ok (Store.open_ dir) in
  check_same_state "reopen after checkpoint + undo" expected
    (Delta.relation (Store.engine store2));
  Store.close store2;
  rm_rf dir

(* The other checkpoint crash window: snapshot renamed into place, but
   the log truncation never hit the disk. The old records' generation
   predates the new snapshot's, so replay skips them instead of
   double-applying. *)
let test_stale_generation_records_skipped () =
  let dir = temp_dir () in
  Result.get_ok (Store.init dir (mgr_spec ()));
  let store = Result.get_ok (Store.open_ dir) in
  let engine = Store.engine store in
  ignore
    (Result.get_ok (Delta.apply engine [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  Result.get_ok
    (Store.log store (Wal.Batch [ Delta.Insert (tuple "Zed" "PR" 7) ]));
  let wal_before =
    In_channel.with_open_bin (Store.wal_path dir) In_channel.input_all
  in
  let spec' = { (Store.spec store) with IF.relation = Delta.relation engine } in
  Result.get_ok (Store.checkpoint store spec');
  let expected = state_fingerprint (Delta.relation engine) in
  Store.close store;
  (* simulate the crash: restore the pre-checkpoint log next to the
     post-checkpoint snapshot *)
  Out_channel.with_open_bin (Store.wal_path dir) (fun oc ->
      Out_channel.output_string oc wal_before);
  let store2 = Result.get_ok (Store.open_ dir) in
  check Alcotest.int "stale record skipped" 1 (Store.stale_records store2);
  check Alcotest.int "nothing replayed" 0 (Store.wal_records store2);
  check_same_state "batch applied exactly once" expected
    (Delta.relation (Store.engine store2));
  Store.close store2;
  rm_rf dir

(* --- the session's journal gate ----------------------------------------- *)

(* A mutation the observer cannot journal must leave the session on the
   state the journal can reproduce: inserts roll back, undos and
   preferences are never applied. *)
let test_session_journal_gate () =
  let spec = mgr_spec () in
  let fail_observer = ref true in
  let journaled = ref 0 in
  let observer _ev =
    if !fail_observer then Error "disk full"
    else begin
      incr journaled;
      Ok ()
    end
  in
  let s = Shell.Session.set_observer (Shell.Session.of_spec spec) observer in
  let card st =
    match Shell.Session.loaded st with
    | Some sp -> Relation.cardinality sp.IF.relation
    | None -> -1
  in
  let prefs st =
    match Shell.Session.loaded st with
    | Some sp -> List.length sp.IF.prefs
    | None -> -1
  in
  let before = card s in
  let s, out = Shell.Session.exec s "insert 'Zed' 'PR' 7" in
  check Alcotest.bool "failed insert reports error" true
    (Shell.Session.is_error_output out);
  check Alcotest.int "failed insert rolled back" before (card s);
  fail_observer := false;
  let s, out = Shell.Session.exec s "insert 'Zed' 'PR' 7" in
  check Alcotest.bool "journaled insert succeeds" false
    (Shell.Session.is_error_output out);
  check Alcotest.int "journaled insert applied" (before + 1) (card s);
  fail_observer := true;
  let s, out = Shell.Session.exec s "undo" in
  check Alcotest.bool "failed undo reports error" true
    (Shell.Session.is_error_output out);
  check Alcotest.int "failed undo not applied" (before + 1) (card s);
  let s, out = Shell.Session.exec s "prefer source s2 > s3" in
  check Alcotest.bool "failed prefer reports error" true
    (Shell.Session.is_error_output out);
  check Alcotest.int "failed prefer dropped" (List.length spec.IF.prefs)
    (prefs s);
  check Alcotest.int "journal saw exactly the good insert" 1 !journaled

(* --- the serve loop (in-process) ---------------------------------------- *)

let test_serve_smoke () =
  let dir = temp_dir () in
  Result.get_ok (Store.init dir (mgr_spec ()));
  let server = Domain.spawn (fun () -> Shell.Server.serve dir) in
  let rec await n =
    if n = 0 then Alcotest.fail "server did not come up"
    else if not (Shell.Server.ping dir) then begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  (* text framing: a query against the warm session *)
  (match Shell.Server.request dir "query Mgr('Mary', d, s)" with
  | Ok out ->
    check Alcotest.bool "query answered" true
      (String.length out > 0 && not (Shell.Session.is_error_output out))
  | Error e -> Alcotest.failf "query failed: %s" e);
  (* a mutation is journaled before it is acknowledged *)
  (match Shell.Server.request dir "insert 'Zed' 'PR' 7" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert failed: %s" e);
  let entries, _, _ = Result.get_ok (Wal.replay (Store.wal_path dir)) in
  check Alcotest.int "insert journaled" 1 (List.length entries);
  (* json framing *)
  (match Shell.Server.request_json dir "info" with
  | Ok resp -> (
    match Obs.Json.member "ok" resp with
    | Some (Obs.Json.Bool true) -> ()
    | _ -> Alcotest.fail "json response not ok")
  | Error e -> Alcotest.failf "json request failed: %s" e);
  (* load is disabled in serve mode *)
  (match Shell.Server.request dir "load /etc/hostname" with
  | Error _ -> ()
  | Ok out -> Alcotest.failf "load accepted in serve mode: %s" out);
  (* snapshot folds the journal into the snapshot *)
  (match Shell.Server.request dir "snapshot" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot failed: %s" e);
  let entries, _, _ = Result.get_ok (Wal.replay (Store.wal_path dir)) in
  check Alcotest.int "wal truncated by snapshot" 0 (List.length entries);
  (* the snapshot is the undo horizon: the pre-snapshot insert can no
     longer be undone (journaling it would brick the next open) *)
  (match Shell.Server.request dir "undo" with
  | Error _ -> ()
  | Ok out -> Alcotest.failf "undo past the snapshot accepted: %s" out);
  (match Shell.Server.request dir "shutdown" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve loop failed: %s" e);
  (* the journaled insert survived into the snapshot *)
  let store = Result.get_ok (Store.open_ dir) in
  check Alcotest.bool "insert persisted" true
    (Relation.mem (Delta.relation (Store.engine store)) (tuple "Zed" "PR" 7));
  Store.close store;
  rm_rf dir

(* A query the evaluator cannot bind (this store's Mgr is 3-ary) must
   come back as an error reply, and the server must keep answering
   afterwards. *)
let test_serve_survives_unbound_query () =
  let dir = temp_dir () in
  Result.get_ok (Store.init dir (mgr_spec ()));
  let server = Domain.spawn (fun () -> Shell.Server.serve dir) in
  let rec await n =
    if n = 0 then Alcotest.fail "server did not come up"
    else if not (Shell.Server.ping dir) then begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  (match Shell.Server.request dir "query exists x. Mgr('Mary',x)" with
  | Error _ -> ()
  | Ok out ->
    check Alcotest.bool "bad query answered with an error" true
      (Shell.Session.is_error_output out));
  check Alcotest.bool "ping answers afterwards" true (Shell.Server.ping dir);
  (match Shell.Server.request dir "shutdown" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve loop failed: %s" e);
  rm_rf dir

(* --- PREFDB_JOBS validation --------------------------------------------- *)

let test_env_jobs_validation () =
  let original = Sys.getenv_opt "PREFDB_JOBS" in
  let set v = Unix.putenv "PREFDB_JOBS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value original ~default:""))
    (fun () ->
      set "4";
      check Alcotest.bool "positive accepted" true
        (Core.Pool.env_jobs_error () = None);
      set "0";
      check Alcotest.bool "zero rejected" true
        (Core.Pool.env_jobs_error () <> None);
      set "-3";
      check Alcotest.bool "negative rejected" true
        (Core.Pool.env_jobs_error () <> None);
      set "two";
      check Alcotest.bool "non-numeric rejected" true
        (Core.Pool.env_jobs_error () <> None);
      set "  8  ";
      check Alcotest.bool "whitespace-trimmed accepted" true
        (Core.Pool.env_jobs_error () = None))

(* The CRC is sliced-by-8 for throughput; a slicing bug would be
   self-consistent (encode and decode share the function), so pin the
   standard check value and the straddling of the 8-byte fold. *)
let test_crc32_known_answer () =
  check Alcotest.int "CRC-32 of '123456789'" 0xcbf43926
    (Dbio.Binio.crc32 "123456789" ~pos:0 ~len:9);
  check Alcotest.int "empty string" 0 (Dbio.Binio.crc32 "" ~pos:0 ~len:0);
  let s = String.init 100 Char.chr in
  (* substring extraction must agree with hashing the copied slice *)
  check Alcotest.int "substring = sliced copy"
    (Dbio.Binio.crc32 (String.sub s 13 41) ~pos:0 ~len:41)
    (Dbio.Binio.crc32 s ~pos:13 ~len:41)

let test_i64_extremes_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Dbio.Binio.w_i64 buf n;
      let rd = Dbio.Binio.reader (Buffer.contents buf) in
      check Alcotest.int (Printf.sprintf "i64 %d" n) n
        (Result.get_ok (Dbio.Binio.r_i64 rd)))
    [ 0; 1; -1; 255; -256; max_int; min_int; 0x1234_5678_9abc ];
  (* a genuine 64-bit value (not a sign-extended 63-bit one) must be
     rejected, not silently truncated *)
  let too_wide = String.init 8 (fun i -> if i = 7 then '\x80' else '\x00') in
  match Dbio.Binio.r_i64 (Dbio.Binio.reader too_wide) with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "Int64.min_int decoded as %d" v

(* The fact section is zigzag-LEB128 varints; pin known encodings so
   the wire format can't drift silently, and the extremes (63-bit
   min/max need the full 9 bytes) round-trip. *)
let test_varint_roundtrip () =
  let encode n =
    let buf = Buffer.create 9 in
    Dbio.Binio.w_varint buf n;
    Buffer.contents buf
  in
  (* zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
  check Alcotest.string "varint 0" "\x00" (encode 0);
  check Alcotest.string "varint -1" "\x01" (encode (-1));
  check Alcotest.string "varint 1" "\x02" (encode 1);
  check Alcotest.string "varint 63" "\x7e" (encode 63);
  check Alcotest.string "varint 64 spills" "\x80\x01" (encode 64);
  List.iter
    (fun n ->
      let s = encode n in
      check Alcotest.bool
        (Printf.sprintf "varint %d fits 9 bytes" n)
        true
        (String.length s <= 9);
      let rd = Dbio.Binio.reader s in
      check Alcotest.int (Printf.sprintf "varint %d" n) n
        (Dbio.Binio.r_varint_exn rd))
    [ 0; 1; -1; 63; 64; -65; 255; -256; max_int; min_int; 0x1234_5678_9abc ]

let test_varint_rejects_overlong () =
  (* ten continuation bytes: more than 63 bits of payload *)
  let overlong = String.make 9 '\x80' ^ "\x01" in
  (match Dbio.Binio.r_varint_exn (Dbio.Binio.reader overlong) with
  | exception Dbio.Binio.Corrupt _ -> ()
  | v -> Alcotest.failf "overlong varint decoded as %d" v);
  (* truncated: continuation bit set but the stream ends *)
  match Dbio.Binio.r_varint_exn (Dbio.Binio.reader "\x80") with
  | exception Dbio.Binio.Corrupt _ -> ()
  | v -> Alcotest.failf "truncated varint decoded as %d" v

let suite =
  [
    ("binio CRC-32 known answers", `Quick, test_crc32_known_answer);
    ("binio i64 extremes round-trip", `Quick, test_i64_extremes_roundtrip);
    ("binio varint round-trip", `Quick, test_varint_roundtrip);
    ("binio varint rejects overlong/truncated", `Quick, test_varint_rejects_overlong);
    ("snapshot round-trip", `Quick, test_snapshot_roundtrip);
    ("snapshot preserves tombstoned slots", `Quick, test_snapshot_preserves_tombstones);
    ("snapshot rejects corruption", `Quick, test_snapshot_rejects_corruption);
    ("snapshot rejects oversized counts", `Quick, test_snapshot_rejects_oversized_counts);
    ("snapshot generation round-trip", `Quick, test_snapshot_generation_roundtrip);
    ("snapshot load re-interns names", `Quick, test_snapshot_load_keeps_intern_coherent);
    ("wal round-trip", `Quick, test_wal_roundtrip);
    ("wal detects a torn tail", `Quick, test_wal_detects_torn_tail);
    ("kill -9 recovery is bit-identical", `Quick, test_kill9_recovery);
    ("snapshot round-trips denial constraints", `Quick, test_snapshot_denials_roundtrip);
    ("kill -9 recovery preserves the denial substrate", `Quick, test_kill9_denial_recovery);
    ("checkpoint truncates the wal", `Quick, test_checkpoint_truncates);
    ("checkpoint is the undo horizon", `Quick, test_checkpoint_is_undo_horizon);
    ("stale-generation wal records are skipped", `Quick, test_stale_generation_records_skipped);
    ("session mutations gate on the journal", `Quick, test_session_journal_gate);
    ("serve loop end to end", `Quick, test_serve_smoke);
    ("serve survives an unbound query", `Quick, test_serve_survives_unbound_query);
    ("PREFDB_JOBS validation", `Quick, test_env_jobs_validation);
  ]
