open Graphs

type step = { picked : int; winnow : Vset.t; removed : Vset.t }

type t = { steps : step list; result : Vset.t }

let clean ?(choose = Vset.min_elt) c p =
  let rec loop remaining steps acc =
    if Vset.is_empty remaining then
      { steps = List.rev steps; result = acc }
    else begin
      let w = Priority.winnow p remaining in
      let x = choose w in
      let removed =
        Vset.inter (Conflict.neighbors c x) remaining
      in
      loop
        (Vset.diff remaining (Conflict.vicinity c x))
        ({ picked = x; winnow = w; removed } :: steps)
        (Vset.add x acc)
    end
  in
  loop (Conflict.live c) [] Vset.empty

(* --- sharded-CQA traces -------------------------------------------------- *)

type cqa = {
  family : Family.name;
  verdict : Cqa.certainty;
  components : int;
  max_component : int;
  per_component_repairs : int list;
  counters : Decompose.counters;
  maintenance : Decompose.counters;
}

let diff_counters (a : Decompose.counters) (b : Decompose.counters) :
    Decompose.counters =
  {
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    component_repairs = a.component_repairs - b.component_repairs;
    combos_streamed = a.combos_streamed - b.combos_streamed;
    components_examined = a.components_examined - b.components_examined;
    early_exits = a.early_exits - b.early_exits;
    deltas_applied = a.deltas_applied - b.deltas_applied;
    edges_added = a.edges_added - b.edges_added;
    edges_removed = a.edges_removed - b.edges_removed;
    components_dirtied = a.components_dirtied - b.components_dirtied;
    cache_evicted = a.cache_evicted - b.cache_evicted;
    cache_retained = a.cache_retained - b.cache_retained;
  }

let certainty family d q =
  let before = Decompose.counters d in
  let verdict = Decompose.certainty family d q in
  let counters = diff_counters (Decompose.counters d) before in
  let maintenance = Decompose.counters d in
  (* components the query warmed are read off the cache; the rest are
     counted streamingly, never materializing repair lists the query
     itself did not need *)
  let per_component_repairs =
    List.map
      (fun comp -> Decompose.count_within family d comp)
      (Decompose.components d)
  in
  {
    family;
    verdict;
    components = List.length per_component_repairs;
    max_component = Decompose.max_component d;
    per_component_repairs;
    counters;
    maintenance;
  }

let pp_product ppf counts =
  let product = List.fold_left Component.sat_mul 1 counts in
  if product = max_int then
    (* overflowed: report the magnitude in floating point instead of a
       wrapped (possibly negative) integer *)
    let approx =
      List.fold_left (fun acc n -> acc *. float_of_int n) 1. counts
    in
    Format.fprintf ppf ">= max_int (~%.3e)" approx
  else Format.pp_print_int ppf product

let pp_cqa ppf t =
  Format.fprintf ppf
    "@[<v>verdict:                %s (%a)@,\
     components:             %d (largest %d)@,\
     preferred repairs:      %a total, per component [%a]@,%a"
    (Cqa.certainty_to_string t.verdict)
    Family.pp_name t.family t.components t.max_component
    pp_product t.per_component_repairs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    t.per_component_repairs Decompose.pp_counters t.counters;
  (* cumulative maintenance telemetry, shown only once deltas flowed *)
  let m = t.maintenance in
  if m.Decompose.deltas_applied > 0 then
    Format.fprintf ppf
      "@,\
       maintenance (lifetime): %d delta(s), +%d/-%d edge(s), %d \
       component(s) dirtied, cache %d evicted / %d retained"
      m.Decompose.deltas_applied m.Decompose.edges_added
      m.Decompose.edges_removed m.Decompose.components_dirtied
      m.Decompose.cache_evicted m.Decompose.cache_retained;
  Format.fprintf ppf "@]"

let pp c ppf t =
  let pp_tuple ppf v = Relational.Tuple.pp ppf (Conflict.tuple c v) in
  let pp_set ppf s =
    if Vset.is_empty s then Format.pp_print_string ppf "(none)"
    else
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        pp_tuple ppf (Vset.elements s)
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i step ->
      Format.fprintf ppf "step %d: keep %a@," (i + 1) pp_tuple step.picked;
      if Vset.cardinal step.winnow > 1 then
        Format.fprintf ppf "        (also undominated: %a)@," pp_set
          (Vset.remove step.picked step.winnow);
      if not (Vset.is_empty step.removed) then
        Format.fprintf ppf "        discards %a@," pp_set step.removed)
    t.steps;
  Format.fprintf ppf "kept %d tuple(s)@]" (Vset.cardinal t.result)
