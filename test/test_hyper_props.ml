(* Property tests for the hypergraph substrate: the denial-constraint
   pipeline must agree with every independent route to the same answer.

   - Hypergraph canonicalization (dedup + subset-minimality + canonical
     order) against a brute-force model, and [patch] against a full
     rebuild.
   - [Hyper.of_fds] against [Conflict.build]: same conflicts, same
     repairs, same verdicts — the binary path is the k = 2 special case
     and must stay bit-identical.
   - The postings join ([violation_sets], including the FD-shaped
     bucketing fast path) against the naive O(n^k) scan, and the pinned
     join against filtering the full join.
   - [Hdecompose] (sharded, cached, Pool-parallel under PREFDB_JOBS)
     against monolithic [Hfamily] enumeration, across component widths
     1-8.
   - [Hyper.apply_delta] / [Hdelta] against rebuilding from scratch.

   Random instances are drawn through the deterministic workload
   generators: QCheck generates (seed, sizes), the property derives the
   instance, so failures print a reproducible configuration. *)

open Relational
open Graphs
module Denial = Constraints.Denial
module Hyper = Core.Hyper
module Hpriority = Core.Hpriority
module Hfamily = Core.Hfamily
module Hdecompose = Core.Hdecompose
module Hdelta = Core.Hdelta
module Prng = Workload.Prng
module Generator = Workload.Generator

let check = Alcotest.check

let prop name ?(count = 60) gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen f)

let vsets_equal = List.equal Vset.equal

(* --- Hypergraph canonicalization vs the brute-force model ------------------ *)

type hg_case = { seed : int; n : int; m : int }

let hg_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 12 in
    let* m = int_bound 20 in
    return { seed; n; m })

let hg_print c = Printf.sprintf "{seed=%d; n=%d; m=%d}" c.seed c.n c.m

let hg_edges c =
  let rng = Prng.create c.seed in
  List.init c.m (fun _ ->
      let card = 1 + Prng.int rng 3 in
      Vset.of_list (List.init card (fun _ -> Prng.int rng c.n)))

(* the quadratic all-pairs filter the packed builder replaces *)
let model_minimal edges =
  let distinct = List.sort_uniq Vset.compare edges in
  List.filter
    (fun e ->
      not
        (List.exists
           (fun e' -> (not (Vset.equal e' e)) && Vset.subset e' e)
           distinct))
    distinct

let hypergraph_canonical =
  prop "Hypergraph.create = dedup + subset-minimal + canonical order" hg_gen
    hg_print (fun c ->
      let edges = hg_edges c in
      vsets_equal
        (Hypergraph.edges (Hypergraph.create c.n edges))
        (model_minimal edges))

let hypergraph_patch_is_rebuild =
  prop "Hypergraph.patch = rebuild over survivors + additions" hg_gen hg_print
    (fun c ->
      let rng = Prng.create (c.seed + 1) in
      let edges = hg_edges c in
      let h = Hypergraph.create c.n edges in
      let drop =
        Vset.of_list
          (List.filter (fun _ -> Prng.int rng 4 = 0) (List.init c.n Fun.id))
      in
      let keep = Vset.diff (Vset.of_range c.n) drop in
      let add =
        List.filter_map
          (fun _ ->
            let card = 1 + Prng.int rng 2 in
            let e =
              Vset.inter
                (Vset.of_list (List.init card (fun _ -> Prng.int rng c.n)))
                keep
            in
            if Vset.is_empty e then None else Some e)
          (List.init 4 Fun.id)
      in
      let survivors =
        List.filter (fun e -> Vset.disjoint e drop) (Hypergraph.edges h)
      in
      vsets_equal
        (Hypergraph.edges (Hypergraph.patch h ~n:c.n ~drop ~add))
        (Hypergraph.edges (Hypergraph.create c.n (survivors @ add))))

(* --- random denial instances ----------------------------------------------- *)

type dn_case = { seed : int; n : int; a_values : int; skew : bool }

let dn_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 10 in
    let* a_values = int_range 1 4 in
    let* skew = bool in
    return { seed; n; a_values; skew })

let dn_print c =
  Printf.sprintf "{seed=%d; n=%d; a_values=%d; skew=%b}" c.seed c.n c.a_values
    c.skew

let dn_instance c =
  let rng = Prng.create c.seed in
  Generator.random_denial_instance rng ~n:c.n ~a_values:c.a_values
    ~payload_values:3 ~cap_chance:0.15 ~skew:c.skew

(* Acyclic by construction: orient each chosen conflicting pair from the
   lower to the higher position of a random vertex permutation. *)
let random_hpriority rng ~density h =
  let n = Hyper.size h in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) perm;
  let arcs =
    List.filter_map
      (fun (u, v) ->
        if Prng.int rng 100 < density then
          Some (if rank.(u) < rank.(v) then (u, v) else (v, u))
        else None)
      (Hpriority.conflicting_pairs h)
  in
  Hpriority.of_arcs_exn h arcs

(* --- violation detection: join = scan, pinned = filter --------------------- *)

let join_matches_scan =
  prop "violation_sets = naive O(n^k) scan (as tuple sets)" dn_gen dn_print
    (fun c ->
      let rel, denials = dn_instance c in
      let schema = Relation.schema rel in
      List.for_all
        (fun dc ->
          let as_tuples vs =
            List.sort_uniq Tuple.compare
              (List.map (Relation.fact rel) (Vset.elements vs))
          in
          List.equal
            (List.equal Tuple.equal)
            (Denial.violations schema dc rel)
            (List.sort_uniq
               (List.compare Tuple.compare)
               (List.map as_tuples (Denial.violation_sets schema dc rel))))
        denials)

let pinned_is_filter =
  prop "violation_sets_pinned id = witnesses containing id" dn_gen dn_print
    (fun c ->
      let rel, denials = dn_instance c in
      let schema = Relation.schema rel in
      List.for_all
        (fun dc ->
          let all = Denial.violation_sets schema dc rel in
          Vset.for_all
            (fun id ->
              vsets_equal
                (Denial.violation_sets_pinned schema dc rel id)
                (List.filter (Vset.mem id) all))
            (Relation.live_ids rel))
        denials)

(* --- of_fds vs the binary Conflict path ------------------------------------ *)

type fd_case = { seed : int; n : int; shape : int }

let fd_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 2 10 in
    let* shape = int_bound 3 in
    return { seed; n; shape })

let fd_print c = Printf.sprintf "{seed=%d; n=%d; shape=%d}" c.seed c.n c.shape

let fd_instance c =
  let rng = Prng.create c.seed in
  match c.shape with
  | 0 -> Generator.random_instance rng ~n:c.n ~key_values:3 ~payload_values:2
  | 1 ->
    Generator.random_two_fd_instance rng ~n:c.n ~a_values:3 ~c_values:3
      ~v_values:2
  | 2 -> Generator.ladder (max 1 (c.n / 2))
  | _ -> Generator.mutual_cycle (max 2 (c.n / 2))

let of_fds_matches_conflict_edges =
  prop "of_fds hyperedges = conflict-graph edges" fd_gen fd_print (fun c ->
      let rel, fds = fd_instance c in
      let h = Hyper.of_fds fds rel in
      let cg = Core.Conflict.build fds rel in
      let pairs =
        List.sort_uniq compare
          (List.map
             (fun (u, v) -> (min u v, max u v))
             (Undirected.edges (Core.Conflict.graph cg)))
      in
      let hedges = Hypergraph.edges (Hyper.hypergraph h) in
      List.length hedges = List.length pairs
      && List.for_all2
           (fun e (u, v) -> Vset.equal e (Vset.of_list [ u; v ]))
           hedges pairs)

let of_fds_matches_conflict_repairs =
  prop ~count:40 "of_fds repairs = binary-path repairs" fd_gen fd_print
    (fun c ->
      let rel, fds = fd_instance c in
      let h = Hyper.of_fds fds rel in
      let cg = Core.Conflict.build fds rel in
      vsets_equal (Hyper.repairs h) (Core.Repair.all cg))

let ground_query rng rel =
  let ids = Vset.elements (Relation.live_ids rel) in
  let t = Relation.fact rel (List.nth ids (Prng.int rng (List.length ids))) in
  let vals = Tuple.values t in
  let vals =
    (* sometimes perturb one position so false/ambiguous verdicts occur *)
    if Prng.int rng 2 = 0 then vals
    else
      List.mapi
        (fun i v ->
          if i = 0 then
            match v with Value.Int k -> Value.Int (k + 1) | v -> v
          else v)
        vals
  in
  Query.Ast.Atom
    (Relational.Schema.name (Relation.schema rel),
     List.map (fun v -> Query.Ast.Const v) vals)

let of_fds_certainty_matches_binary =
  prop ~count:40 "hyper ground certainty = binary ground certainty" fd_gen
    fd_print (fun c ->
      let rng = Prng.create (c.seed + 7) in
      let rel, fds = fd_instance c in
      let h = Hyper.of_fds fds rel in
      let cg = Core.Conflict.build fds rel in
      let d = Core.Decompose.make cg (Core.Priority.empty cg) in
      let q = ground_query rng rel in
      Result.get_ok (Hyper.ground_certainty h q)
      = Core.Decompose.certainty Core.Family.Rep d q)

(* Both engines are one functor over two substrates, so on FD inputs
   they must do the same work, not just reach the same answers: the
   same components solved, cache hits and misses, deviations examined
   and combinations streamed. Sequential, because a parallel scan's stop
   flag makes the amount of counting before an early exit
   schedule-dependent. *)
let of_fds_engines_count_alike =
  prop ~count:40 "Hdecompose counters = Decompose counters on FD inputs"
    fd_gen fd_print (fun c ->
      let jobs = Core.Pool.jobs () in
      Core.Pool.set_jobs 1;
      Fun.protect ~finally:(fun () -> Core.Pool.set_jobs jobs) @@ fun () ->
      let rng = Prng.create (c.seed + 11) in
      let rel, fds = fd_instance c in
      let h = Hyper.of_fds fds rel in
      let cg = Core.Conflict.build fds rel in
      let hd = Hdecompose.make h (Hpriority.empty h) in
      let bd = Core.Decompose.make cg (Core.Priority.empty cg) in
      let same () =
        let a = Hdecompose.counters hd and b = Core.Decompose.counters bd in
        a.cache_hits = b.cache_hits
        && a.cache_misses = b.cache_misses
        && a.components_examined = b.components_examined
        && a.combos_streamed = b.combos_streamed
        && a.early_exits = b.early_exits
      in
      let counted =
        Hdecompose.count Hfamily.Rep hd = Core.Decompose.count Core.Family.Rep bd
      in
      let after_count = same () in
      (* a ground query and a quantified one, to cover both routes *)
      let ground = ground_query rng rel in
      let quantified =
        let schema = Relation.schema rel in
        let vars = List.init (Schema.arity schema) (Printf.sprintf "x%d") in
        Query.Ast.Exists
          (vars, Query.Ast.Atom (Schema.name schema,
                                 List.map (fun x -> Query.Ast.Var x) vars))
      in
      let verdicts_agree q =
        Hdecompose.certainty Hfamily.Rep hd q
        = Core.Decompose.certainty Core.Family.Rep bd q
        && same ()
      in
      counted && after_count && verdicts_agree ground
      && verdicts_agree (Query.Ast.And (quantified, Query.Ast.Not ground)))

(* --- Hdecompose vs monolithic Hfamily -------------------------------------- *)

type w_case = { seed : int; width : int; groups : int; tail : int }

let w_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* width = int_range 1 8 in
    let* groups = int_range 1 2 in
    let* tail = int_bound 3 in
    return { seed; width; groups; tail })

let w_print c =
  Printf.sprintf "{seed=%d; width=%d; groups=%d; tail=%d}" c.seed c.width
    c.groups c.tail

let w_instance c =
  let rel, denials =
    Generator.denial_clusters
      ~facts:((c.groups * c.width) + c.tail)
      ~groups:c.groups ~width:c.width
  in
  let h = Hyper.build denials rel in
  let rng = Prng.create c.seed in
  let p = random_hpriority rng ~density:60 h in
  (h, p)

let naive_certainty fam h p q =
  let truths =
    List.map
      (fun s -> Query.Eval.holds_relation (Hyper.to_relation h s) q)
      (Hfamily.repairs fam h p)
  in
  if List.for_all Fun.id truths then Core.Cqa.Certainly_true
  else if List.for_all not truths then Core.Cqa.Certainly_false
  else Core.Cqa.Ambiguous

let sharded_matches_monolithic =
  prop ~count:40 "Hdecompose count/repairs/certainty = monolithic Hfamily"
    w_gen w_print (fun c ->
      let h, p = w_instance c in
      let d = Hdecompose.make h p in
      let rng = Prng.create (c.seed + 11) in
      let q = ground_query rng (Hyper.relation h) in
      List.for_all
        (fun fam ->
          let mono = Hfamily.repairs fam h p in
          let sharded = ref [] in
          Hdecompose.iter fam d (fun s -> sharded := s :: !sharded);
          vsets_equal (List.sort Vset.compare !sharded) mono
          && Hdecompose.count fam d = List.length mono
          && Hdecompose.certainty fam d q = naive_certainty fam h p q
          && List.for_all (Hdecompose.member fam d) mono)
        Hfamily.all_names)

let families_nest =
  prop ~count:40 "Global ⊆ Pareto ⊆ Rep, all non-empty" w_gen w_print (fun c ->
      let h, p = w_instance c in
      let subset l1 l2 =
        List.for_all (fun s -> List.exists (Vset.equal s) l2) l1
      in
      let rep = Hfamily.repairs Hfamily.Rep h p in
      let pareto = Hfamily.repairs Hfamily.Pareto h p in
      let glob = Hfamily.repairs Hfamily.Global h p in
      rep <> [] && pareto <> [] && glob <> []
      && subset glob pareto && subset pareto rep
      && List.for_all (Hyper.is_repair h) rep)

let test_pareto_hand_example () =
  (* one conflict {a, b}, priority b ≻ a: Pareto = Global = [{b}],
     Rep keeps both singletons (Staworko-Chomicki, Example 1 shape) *)
  let schema = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let rel =
    Relation.of_rows schema
      [ [ Value.int 1; Value.int 0 ]; [ Value.int 1; Value.int 1 ] ]
  in
  let h = Hyper.of_fds [ Constraints.Fd.make [ "A" ] [ "B" ] ] rel in
  let p = Hpriority.of_arcs_exn h [ (1, 0) ] in
  let vs l = Vset.of_list l in
  Testlib.check_vsets "Rep keeps both" [ vs [ 0 ]; vs [ 1 ] ]
    (Hfamily.repairs Hfamily.Rep h p);
  Testlib.check_vsets "Pareto selects the dominator" [ vs [ 1 ] ]
    (Hfamily.repairs Hfamily.Pareto h p);
  Testlib.check_vsets "Global selects the dominator" [ vs [ 1 ] ]
    (Hfamily.repairs Hfamily.Global h p);
  check Alcotest.bool "member agrees" true
    (Hfamily.member Hfamily.Pareto h p (vs [ 1 ]));
  check Alcotest.bool "loser not Pareto" false
    (Hfamily.check Hfamily.Pareto h p (vs [ 0 ]))

(* --- deltas: incremental = rebuild ----------------------------------------- *)

let fresh_rows c k =
  (* rows guaranteed distinct from the generator's (C < n) output *)
  List.init k (fun i ->
      Tuple.make
        [ Value.int (i mod c.a_values); Value.int 0; Value.int (c.n + i);
          Value.int 1 ])

let apply_delta_is_rebuild =
  prop ~count:40 "Hyper.apply_delta = rebuild on the patched relation" dn_gen
    dn_print (fun c ->
      let rel, denials = dn_instance c in
      let h = Hyper.build denials rel in
      let rng = Prng.create (c.seed + 3) in
      let insert = fresh_rows c (1 + Prng.int rng 2) in
      let delete =
        List.filter_map
          (fun id ->
            if Prng.int rng 3 = 0 then Some (Hyper.tuple h id) else None)
          (Vset.elements (Relation.live_ids rel))
      in
      match Hyper.apply_delta h ~insert ~delete with
      | Error e -> QCheck2.Test.fail_reportf "delta rejected: %s" e
      | Ok (h', delta) ->
        let rebuilt = Hyper.build denials (Hyper.relation h') in
        vsets_equal
          (Hypergraph.edges (Hyper.hypergraph h'))
          (Hypergraph.edges (Hyper.hypergraph rebuilt))
        && List.length delta.Hyper.inserted = List.length insert
        && List.length delta.Hyper.deleted = List.length delete)

let hdelta_undo_restores =
  prop ~count:30 "Hdelta apply + undo restores edges, live set and counts"
    dn_gen dn_print (fun c ->
      let rel, denials = dn_instance c in
      let engine = Result.get_ok (Hdelta.create denials rel) in
      (* undo restores content, not fact ids (the inverse batch
         re-inserts under fresh ids, as in the binary [Delta]), so the
         fingerprint is id-independent *)
      let fingerprint () =
        ( List.sort compare
            (List.map Tuple.to_string
               (Relation.tuples (Hdelta.relation engine))),
          Hypergraph.edge_count (Hyper.hypergraph (Hdelta.hyper engine)),
          Hdecompose.count Hfamily.Rep (Hdelta.decompose engine) )
      in
      let before = fingerprint () in
      let before_live = Relation.live_ids (Hdelta.relation engine) in
      let rng = Prng.create (c.seed + 5) in
      let ops =
        List.map (fun t -> Hdelta.Insert t) (fresh_rows c 2)
        @ List.filter_map
            (fun id ->
              if Prng.int rng 3 = 0 then
                Some (Hdelta.Delete (Hyper.tuple (Hdelta.hyper engine) id))
              else None)
            (Vset.elements before_live)
      in
      match Hdelta.apply engine ops with
      | Error e -> QCheck2.Test.fail_reportf "apply rejected: %s" e
      | Ok _ -> (
        (* incremental state = rebuild on the mutated relation *)
        let fresh =
          Result.get_ok (Hdelta.create denials (Hdelta.relation engine))
        in
        let same_as_fresh =
          vsets_equal
            (Hypergraph.edges (Hyper.hypergraph (Hdelta.hyper engine)))
            (Hypergraph.edges (Hyper.hypergraph (Hdelta.hyper fresh)))
          && Hdecompose.count Hfamily.Rep (Hdelta.decompose engine)
             = Hdecompose.count Hfamily.Rep (Hdelta.decompose fresh)
        in
        match Hdelta.undo engine with
        | Error e -> QCheck2.Test.fail_reportf "undo rejected: %s" e
        | Ok _ -> same_as_fresh && fingerprint () = before))

(* --- denial text round-trip ------------------------------------------------ *)

let test_denial_text_roundtrip () =
  List.iter
    (fun dc ->
      let s = Denial.to_string dc in
      match Denial.of_string s with
      | Error e -> Alcotest.failf "reparse of %S failed: %s" s e
      | Ok dc' ->
        check Alcotest.string ("fixpoint of " ^ s) s (Denial.to_string dc'))
    (Generator.mixed_denials ~cap:Generator.denial_cap
    @ Denial.of_fd
        (Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ])
        (Constraints.Fd.make [ "A" ] [ "B" ])
    @ [
        Denial.make ~label:"it's quoted" ~nvars:1
          [
            {
              Denial.left = Denial.Attr (0, "A");
              op = Denial.Leq;
              right = Denial.Const (Value.name "o'brien");
            };
          ];
      ])

let suite =
  [
    hypergraph_canonical;
    hypergraph_patch_is_rebuild;
    join_matches_scan;
    pinned_is_filter;
    of_fds_matches_conflict_edges;
    of_fds_matches_conflict_repairs;
    of_fds_certainty_matches_binary;
    of_fds_engines_count_alike;
    sharded_matches_monolithic;
    families_nest;
    ("Pareto/Global hand example", `Quick, test_pareto_hand_example);
    apply_delta_is_rebuild;
    hdelta_undo_restores;
    ("denial text round-trip", `Quick, test_denial_text_roundtrip);
  ]
