open Graphs

type t = {
  tuples : int;
  conflict_edges : int;
  conflicting_tuples : int;
  components : int;
  nontrivial_components : int;
  largest_component : int;
  oriented_edges : int;
  total_priority : bool;
  repair_count : int;
  preferred_count : int;
  certain : int;
  disputed : int;
  excluded : int;
  cache_hits : int;
  cache_misses : int;
  cached_repairs : int;
  deltas_applied : int;
  components_dirtied : int;
  cache_evicted : int;
  cache_retained : int;
}

let compute_with family d =
  let c = Decompose.conflict d in
  let p = Decompose.priority d in
  let n = Vset.cardinal (Conflict.live c) in
  let before = Decompose.counters d in
  let certain = Decompose.certain_tuples family d in
  let possible = Decompose.possible_tuples family d in
  (* component figures come from the stored components and the free set;
     [Decompose.components] would synthesize a dense singleton per
     conflict-free tuple, quadratic on a large clean instance *)
  {
    tuples = n;
    conflict_edges = Undirected.edge_count (Conflict.graph c);
    conflicting_tuples = n - Vset.cardinal (Decompose.free d);
    components = Decompose.component_count d;
    nontrivial_components =
      Decompose.fold_components
        (fun acc comp -> if Vset.cardinal comp > 1 then acc + 1 else acc)
        0 d;
    largest_component = Decompose.max_component d;
    oriented_edges = Priority.arc_count p;
    total_priority = Priority.is_total c p;
    repair_count = Decompose.count Family.Rep d;
    preferred_count = Decompose.count family d;
    certain = Vset.cardinal certain;
    disputed = Vset.cardinal (Vset.diff possible certain);
    excluded = n - Vset.cardinal possible;
    cache_hits = (Decompose.counters d).cache_hits - before.cache_hits;
    cache_misses = (Decompose.counters d).cache_misses - before.cache_misses;
    cached_repairs =
      (Decompose.counters d).component_repairs - before.component_repairs;
    (* lifetime values, not diffed: updates happened before this summary *)
    deltas_applied = (Decompose.counters d).deltas_applied;
    components_dirtied = (Decompose.counters d).components_dirtied;
    cache_evicted = (Decompose.counters d).cache_evicted;
    cache_retained = (Decompose.counters d).cache_retained;
  }

let compute family c p = compute_with family (Decompose.make c p)

(* [Decompose.count] saturates at [max_int] rather than wrapping; say so
   instead of printing a huge number that looks exact *)
let pp_count ppf n =
  if n = max_int then Format.pp_print_string ppf ">= max_int (saturated)"
  else Format.pp_print_int ppf n

let pp ppf s =
  Format.fprintf ppf
    "@[<v>tuples:                 %d@,\
     conflict edges:         %d (%d tuples involved)@,\
     components:             %d (%d non-trivial, largest %d)@,\
     priority:               %d/%d edges oriented%s@,\
     repairs:                %a@,\
     preferred repairs:      %a@,\
     tuple fates:            %d certain, %d disputed, %d excluded@,\
     component cache:        %d hit(s), %d miss(es), %d repair(s) cached"
    s.tuples s.conflict_edges s.conflicting_tuples s.components
    s.nontrivial_components s.largest_component s.oriented_edges
    s.conflict_edges
    (if s.total_priority then " (total)" else "")
    pp_count s.repair_count pp_count s.preferred_count s.certain s.disputed
    s.excluded s.cache_hits s.cache_misses s.cached_repairs;
  if s.deltas_applied > 0 then
    Format.fprintf ppf
      "@,\
       incremental updates:    %d delta(s); %d component(s) dirtied; \
       cache %d evicted, %d retained"
      s.deltas_applied s.components_dirtied s.cache_evicted s.cache_retained;
  Format.fprintf ppf "@]"
