(** The component engine, written once over a conflict substrate.

    Conflicts never leave a connected component of the conflict
    (hyper)graph, and every preferred-repair family of the paper
    ({!Family}) and of its denial-constraint generalization
    ({!Hfamily}) factorizes over components:

    - repairs of r = unions of one repair per component;
    - an improving witness (L/S, Pareto, global) acts inside one
      component;
    - priorities only join facts that share a conflict, hence lie inside
      one component, so global optimality is component-wise global
      optimality;
    - Algorithm 1's winnow is component-local and runs on different
      components interleave freely (Prop. 7 per component).

    The global repair space is the product of the component spaces —
    often astronomically large while every component stays small.
    {!Make} exploits that: counting preferred repairs, deciding
    certainty and streaming the family all become tractable whenever
    components are small, even for the families whose global problems
    are co-NP- or Π₂ᵖ-complete (the hardness constructions need
    components that grow with the instance).

    The engine is a functor over a {!SUBSTRATE} (the conflict structure:
    the binary conflict graph of {!Conflict} or the hypergraph of
    {!Hyper}) and a {!FAMILY} (the per-component repair enumerator).
    {!Decompose} and {!Hdecompose} are its two instances. One rule places
    every vertex, at [make] and after every delta alike: a live
    vertex is {e free} iff the substrate does not list it as
    {!SUBSTRATE.covered}. Free vertices belong to every repair and are
    aggregated into one set; every covered vertex lives in a stored
    component. *)

open Relational
open Graphs

type counters = {
  mutable cache_hits : int;
      (** [preferred_within] served from the component cache *)
  mutable cache_misses : int;
      (** component repair lists actually computed *)
  mutable component_repairs : int;
      (** repairs materialized by cache misses, summed over components *)
  mutable combos_streamed : int;
      (** cross-product combinations handed to a consumer ([iter],
          [certainty], ...) *)
  mutable components_examined : int;
      (** per-component checks performed (clause demands, deviation
          scans) *)
  mutable early_exits : int;
      (** evaluations cut short before exhausting their search space *)
  mutable deltas_applied : int;
      (** incremental updates folded in through [apply_delta] *)
  mutable edges_added : int;  (** conflict edges created by those deltas *)
  mutable edges_removed : int;
      (** conflict edges destroyed by those deltas *)
  mutable components_dirtied : int;
      (** components invalidated (recomputed) by deltas *)
  mutable cache_evicted : int;
      (** [(family, component)] cache entries dropped by deltas *)
  mutable cache_retained : int;
      (** cache entries of untouched components carried across deltas *)
}
(** Observability counters, accumulated across every query answered
    through one engine value. The fields are mutable only so the
    implementation can bump them in place; treat values returned by
    [counters] as a snapshot. Both instances share this one type. *)

let fresh_counters () =
  {
    cache_hits = 0;
    cache_misses = 0;
    component_repairs = 0;
    combos_streamed = 0;
    components_examined = 0;
    early_exits = 0;
    deltas_applied = 0;
    edges_added = 0;
    edges_removed = 0;
    components_dirtied = 0;
    cache_evicted = 0;
    cache_retained = 0;
  }

(* Parallel jobs shard their counting into per-lane records and the
   submitting domain folds the shards back in after the join, so the
   shared record is only ever mutated by one domain. Integer addition
   commutes, so the merged totals are independent of scheduling. *)
let merge_counters dst z =
  dst.cache_hits <- dst.cache_hits + z.cache_hits;
  dst.cache_misses <- dst.cache_misses + z.cache_misses;
  dst.component_repairs <- dst.component_repairs + z.component_repairs;
  dst.combos_streamed <- dst.combos_streamed + z.combos_streamed;
  dst.components_examined <- dst.components_examined + z.components_examined;
  dst.early_exits <- dst.early_exits + z.early_exits;
  dst.deltas_applied <- dst.deltas_applied + z.deltas_applied;
  dst.edges_added <- dst.edges_added + z.edges_added;
  dst.edges_removed <- dst.edges_removed + z.edges_removed;
  dst.components_dirtied <- dst.components_dirtied + z.components_dirtied;
  dst.cache_evicted <- dst.cache_evicted + z.cache_evicted;
  dst.cache_retained <- dst.cache_retained + z.cache_retained

let pp_counters ppf z =
  Format.fprintf ppf
    "@[<v>component cache:        %d hit(s), %d miss(es), %d repair(s) \
     materialized@,\
     streamed:               %d repair combination(s)@,\
     components examined:    %d (%d early exit(s))"
    z.cache_hits z.cache_misses z.component_repairs z.combos_streamed
    z.components_examined z.early_exits;
  (* the delta lines appear only once updates have actually flowed, so
     output for the static pipeline is unchanged *)
  if z.deltas_applied > 0 then
    Format.fprintf ppf
      "@,\
       deltas applied:         %d (%d edge(s) added, %d removed)@,\
       delta invalidation:     %d component(s) dirtied, %d cache \
       entr(ies) evicted, %d retained"
      z.deltas_applied z.edges_added z.edges_removed z.components_dirtied
      z.cache_evicted z.cache_retained;
  Format.fprintf ppf "@]"

type op = Insert of Tuple.t | Delete of Tuple.t
(** One tuple-level update of a batch. *)

type report = {
  inserted : int;
  deleted : int;
  edges_added : int;  (** conflict edges the batch created *)
  edges_removed : int;  (** conflict edges the batch destroyed *)
  components_dirtied : int;  (** components re-decomposed *)
  cache_evicted : int;  (** cached repair lists invalidated *)
  cache_retained : int;  (** cached repair lists carried over live *)
}
(** What one update batch did — the per-batch view of the cumulative
    {!counters}. *)

let pp_report ~edges ppf r =
  Format.fprintf ppf
    "@[<v>applied:                +%d tuple(s), -%d tuple(s) (%d %s added, \
     %d removed)@,\
     invalidation:           %d component(s) dirtied; cache %d evicted, %d \
     retained@]"
    r.inserted r.deleted r.edges_added edges r.edges_removed
    r.components_dirtied r.cache_evicted r.cache_retained

let split ops =
  let ins, del =
    List.fold_left
      (fun (ins, del) -> function
        | Insert x -> (x :: ins, del)
        | Delete x -> (ins, x :: del))
      ([], []) ops
  in
  (List.rev ins, List.rev del)

(* Tuples keep their relative order under restriction, so new vertex i
   of a component's sub-instance is the i-th smallest original id.
   Priority arcs join facts that share a conflict, hence lie inside one
   component: probing the successor sets of the component's vertices
   finds them all in O(comp + arcs), where walking every arc would cost
   O(V) per component. *)
let induced_arcs ~dominated comp =
  let mapping = Array.of_list (Vset.elements comp) in
  let back = Hashtbl.create (Array.length mapping) in
  Array.iteri (fun i v -> Hashtbl.replace back v i) mapping;
  let arcs =
    Vset.fold
      (fun u acc ->
        let u' = Hashtbl.find back u in
        Vset.fold
          (fun v acc ->
            match Hashtbl.find_opt back v with
            | Some v' -> (u', v') :: acc
            | None -> acc)
          (dominated u) acc)
      comp []
  in
  (mapping, arcs)

(* repair counts multiply across components and overflow [int] long before
   they overflow anyone's patience: saturate instead of wrapping. Both
   arguments are >= 0, 0 annihilates and saturation triggers exactly when
   the true product exceeds [max_int], so the fold is order-independent —
   safe to combine in any schedule. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

(** {1 Parameters} *)

(** What the engine needs of a conflict structure. Vertex ids are the
    relation's fact ids. *)
module type SUBSTRATE = sig
  type t
  type priority
  type delta
  type family

  val prefix : string
  (** Span-name prefix of the engine ([prefix ^ ".make"], [".component"],
      ...); capitalized, it also names the engine in [Invalid_argument]
      messages. *)

  val cqa_prefix : string
  (** Span-name prefix of certainty ([cqa_prefix ^ ".certainty"]). *)

  val empty_family : family -> exn
  (** Raised by the streaming paths when a component contributes no
      preferred repair — which non-emptiness of every family rules out;
      a vacuous verdict would mask the bug. *)

  val live : t -> Vset.t
  val size : t -> int
  (** Allocated vertex ids, live and tombstoned. *)

  val is_live : t -> int -> bool
  val schema : t -> Schema.t
  val index : t -> Tuple.t -> int option

  val covered : t -> Vset.t
  (** The live vertices lying in at least one edge. A vertex outside it
      is free. In the binary graph these are the non-isolated vertices;
      in a hypergraph a vertex whose only edge is [{v}] is covered
      without having neighbors. *)

  val neighbors : t -> int -> Vset.t
  (** Vertices sharing an edge with the given one. *)

  val inserted : delta -> int list
  val deleted : delta -> int list

  val edges_added : delta -> Vset.t list
  (** Every added edge touches an inserted vertex. *)

  val edges_removed : delta -> Vset.t list
  (** Every removed edge touches a deleted vertex. *)

  val restrict : t -> priority -> Vset.t -> t * priority * int array
  (** The sub-instance induced by a component, its priority and the map
      from sub-instance ids back to original ids. Its edges must be
      exactly the component's edges. *)

  val evaluate_in_repair : t -> Vset.t -> Query.Ast.t -> bool
  (** Does the closed query hold in the instance restricted to the
      repair? *)
end

(** The part of a family module the engine calls. *)
module type FAMILY = sig
  type name
  type instance
  type priority

  val name_to_string : name -> string

  val repairs : name -> instance -> priority -> Vset.t list
  (** All preferred repairs of a (component) instance. *)

  val iter : name -> instance -> priority -> (Vset.t -> unit) -> unit
  (** Streams them without materializing the list. *)
end

(** {1 The engine} *)

module type ENGINE = sig
  type substrate
  type priority
  type delta
  type family
  type t

  val make : substrate -> priority -> t
  (** Precomputes the components. O(V + E). Free vertices are not given
      singleton components of their own: they are aggregated into one
      internal {e free set}, which keeps decomposition linear even when
      almost all of a huge instance is clean. *)

  val substrate : t -> substrate
  val priority : t -> priority

  val free : t -> Vset.t
  (** The free vertices: live, covered by no edge, in every repair. *)

  val components : t -> Vset.t list
  (** The logical components in canonical order (increasing smallest
      vertex), including one synthesized singleton per free vertex — the
      historical reporting shape. Each singleton is a dense [Vset] sized
      by its fact id, so this is quadratic on large clean instances; the
      evaluation paths never call it, and {!component_count},
      {!max_component} and {!fold_components} answer the usual
      questions without it. *)

  val fold_components : ('a -> Vset.t -> 'a) -> 'a -> t -> 'a
  (** Folds over the stored components (every component with an edge),
      in slot order — the free vertices are not visited. *)

  val component_count : t -> int
  (** [List.length (components d)] without synthesizing the free
      singletons. *)

  val max_component : t -> int
  (** Size of the largest connected component — the parameter every
      exponential bound below is measured in. 0 iff the instance is
      empty. *)

  val component_of : t -> int -> Vset.t
  (** The component containing the given vertex. Raises
      [Invalid_argument] on tombstoned (deleted) vertices. *)

  (** {2 Telemetry} *)

  val counters : t -> counters
  (** A snapshot of the counters accumulated so far (callers can diff
      two snapshots around a query). *)

  val tally : t -> counters
  (** The live record itself, for instance-specific extensions that
      count their own work. *)

  val reset_counters : t -> unit
  (** Zeroes the live counters. The repair cache itself is kept, so a
      query replayed after a reset reports pure cache hits. *)

  val reset_cache : t -> unit
  (** Drops every cached [(family, component)] repair list, so the next
      query pays the component solves again. Counters are kept. Meant
      for measurement harnesses that re-run cold evaluations on one
      engine value. *)

  val pp_counters : Format.formatter -> counters -> unit

  (** {2 Incremental maintenance} *)

  val apply_delta : t -> substrate -> priority -> delta -> t
  (** [apply_delta d sub' p' delta] carries the engine across an
      incremental update of its substrate. Only components actually
      reached by the delta — those containing a deleted vertex or a
      vertex of an added/removed edge, plus the inserted vertices — are
      re-decomposed. Component slots are stable: an untouched component
      is provably unchanged and keeps its slot, its vertex-index entries
      and its cached repair lists verbatim; only the dirtied slots'
      cache entries are evicted. The returned value shares [d]'s
      counters record, so {!counters} reports telemetry accumulated over
      the whole update history. O(touched components + V) per call. *)

  (** {2 Per-component repairs} *)

  val preferred_within : family -> t -> Vset.t -> Vset.t list
  (** The family's preferred repairs of one component, as subsets of the
      original vertex ids, cached per [(family, component)]. Cost is
      exponential only in the component size. *)

  val count_within : family -> t -> Vset.t -> int
  (** Number of preferred repairs of one component. Served from the
      cache when the component's repair list is already materialized;
      otherwise streams the family over the component's sub-instance and
      counts, without building the list or populating the cache. *)

  val warm : family -> t -> unit
  (** Fills the [(family, component)] cache for every component that is
      not already cached. Counter-equivalent to a sequential
      [preferred_within] sweep: one [cache_hits] per already-cached
      component, one [cache_misses] (plus its [component_repairs]) per
      filled one. When {!Pool.jobs}[ () > 1], the misses are solved on
      the domain pool with per-lane counter shards merged after the join
      and all cache writes published by the calling domain in slot
      order, so counters and cache contents equal the sequential
      fill's. *)

  val count : family -> t -> int
  (** Number of preferred repairs of the whole instance — the product of
      the per-component counts, saturating at [max_int] instead of
      wrapping (Example 4 exceeds it at n ≥ 62). *)

  (** {2 Streaming the family through the decomposition}

      Sharded counterparts of the whole-instance [iter/exists/for_all/
      member/one] of the family modules. They enumerate the global
      family as the cross product of per-component preferred repairs,
      so the per-component work is exponential only in the largest
      component. Enumeration order is unspecified. *)

  val iter : family -> t -> (Vset.t -> unit) -> unit
  (** Streams every preferred repair without materializing the product.
      Raises the substrate's {!SUBSTRATE.empty_family} exception if some
      component contributes no preferred repair; with no conflicts at
      all, yields the single repair of the free vertices. *)

  val exists : family -> t -> (Vset.t -> bool) -> bool
  (** First-witness early exit over {!iter}. *)

  val for_all : family -> t -> (Vset.t -> bool) -> bool
  (** First-counterexample early exit over {!iter}; never vacuous. *)

  val member : family -> t -> Vset.t -> bool
  (** [r] is a preferred repair iff its restriction to each component is
      a preferred repair of that component (and it keeps every free
      vertex). *)

  val one : family -> t -> Vset.t option
  (** The union of one preferred repair per component; [None] only if
      some component has none. *)

  (** {2 Certainty} *)

  val evaluate_in_repair : t -> Vset.t -> Query.Ast.t -> bool

  val certainty_ground :
    family -> t -> Query.Ast.t -> (Cqa.certainty, string) result
  (** Certainty of a ground query, decided component-wise: a DNF clause
      is satisfiable by a preferred repair iff its per-component demands
      are each satisfiable by a preferred repair of that component.
      Exponential only in the largest component touched by the query. *)

  val certainty : family -> t -> Query.Ast.t -> Cqa.certainty
  (** Certainty of a closed query. Ground quantifier-free queries route
      through {!certainty_ground}. Quantified queries get a two-pass
      evaluation: a deviation scan over all repairs at component Hamming
      distance ≤ 1 from a baseline settles [Ambiguous] after only
      sum-per-component many evaluations, and only a certain verdict
      (with ≥ 2 multi-repair components) falls back to the full cross
      product. That fallback is unavoidable: certainty of quantified
      queries is co-NP-hard already for instances whose components all
      have ≤ 2 tuples. Raises [Invalid_argument] on open queries. *)

  val consistent_answer : family -> t -> Query.Ast.t -> bool
  (** [certainty = Certainly_true], with the ground route cut short to a
      single ¬Q satisfiability check. *)

  val certain_tuples : family -> t -> Vset.t
  (** Tuples in {e every} preferred repair, computed per component. A
      free tuple is always certain. *)

  val possible_tuples : family -> t -> Vset.t
  (** Tuples in at least one preferred repair. *)

  (** {2 The update journal}

      A mutable handle over an engine value that pushes batches of
      inserts and deletes through every layer — substrate patch,
      priority update, {!apply_delta} — and records each accepted
      batch's inverse for undo. *)

  type journal

  type layers = {
    span : string;  (** span wrapping one batch *)
    patch :
      substrate ->
      insert:Tuple.t list ->
      delete:Tuple.t list ->
      (substrate * delta, string) result;
        (** the substrate's own delta (deletes before inserts) *)
    reprioritize :
      substrate -> priority -> dropped:Vset.t -> delta ->
      (priority, string) result;
        (** carry the priority across the patch; [dropped] are the
            tombstoned vertices *)
    batch_ops : Obs.Metric.histogram;  (** observes each batch's size *)
    accepted : insert:Tuple.t list -> delete:Tuple.t list -> report -> unit;
        (** runs inside the span once a batch is committed *)
  }
  (** The layers below the engine, supplied per call. Every layer must
      validate before it mutates, so a rejected batch changes nothing. *)

  val journal : t -> journal
  val engine : journal -> t

  val apply : layers -> journal -> op list -> (report, string) result
  (** Applies one batch atomically and records its inverse. *)

  val undo : layers -> journal -> (report, string) result
  (** Reverts the most recent not-yet-undone batch by applying its
      inverse (deleted tuples come back under fresh ids). *)

  val history_depth : journal -> int
  val drop_history : journal -> unit
end

exception Stop

module Make
    (S : SUBSTRATE)
    (F : FAMILY
           with type name = S.family
            and type instance := S.t
            and type priority := S.priority) :
  ENGINE
    with type substrate = S.t
     and type priority = S.priority
     and type delta = S.delta
     and type family = S.family = struct
  type substrate = S.t
  type priority = S.priority
  type delta = S.delta
  type family = S.family

  type t = {
    substrate : S.t;
    priority : S.priority;
    components : Vset.t array;
        (* the components that carry an edge, indexed by component SLOT,
           so [component_of] is O(1). Slots are stable across
           [apply_delta]: an untouched component keeps its slot (and so
           its [comp_index] entries and cache keys), a dirtied one frees
           it for reuse. [Vset.empty] marks a free slot — every consumer
           iterating this array skips empties. *)
    free : Vset.t;
        (* live vertices covered by no edge, aggregated into ONE set
           instead of one singleton component each. A dense
           [Vset.singleton v] costs O(v) words, so materializing a million
           singleton components would be quadratic in the instance. A free
           vertex belongs to every repair, so it contributes factor 1 to
           every product and a fixed summand to every aggregate. *)
    comp_index : int array;
        (* slot of the vertex's component; -1 = free or tombstoned *)
    cache : (F.name * int, Vset.t list) Hashtbl.t;
        (* (family, component slot) -> preferred repairs in original ids *)
    counters : counters;
  }

  type journal = { mutable engine : t; mutable history : op list list }

  type layers = {
    span : string;
    patch :
      S.t ->
      insert:Tuple.t list ->
      delete:Tuple.t list ->
      (S.t * S.delta, string) result;
    reprioritize :
      S.t -> S.priority -> dropped:Vset.t -> S.delta ->
      (S.priority, string) result;
    batch_ops : Obs.Metric.histogram;
    accepted : insert:Tuple.t list -> delete:Tuple.t list -> report -> unit;
  }

  let module_name = String.capitalize_ascii S.prefix
  let span_make = S.prefix ^ ".make"
  let span_apply_delta = S.prefix ^ ".apply_delta"
  let span_component = S.prefix ^ ".component"
  let span_count = S.prefix ^ ".count"
  let span_certainty = S.cqa_prefix ^ ".certainty"

  (* the connected component of [v]: breadth-first over neighbor sets *)
  let closure sub v =
    let rec grow frontier comp =
      if Vset.is_empty frontier then comp
      else begin
        let comp = Vset.union comp frontier in
        let next =
          Vset.fold
            (fun u acc -> Vset.union acc (S.neighbors sub u))
            frontier Vset.empty
        in
        grow (Vset.diff next comp) comp
      end
    in
    grow (Vset.singleton v) Vset.empty

  let make sub priority =
    Obs.Span.with_span span_make @@ fun () ->
    let live = S.live sub in
    let covered = Vset.inter live (S.covered sub) in
    let comp_index = Array.make (max 1 (S.size sub)) (-1) in
    let comps = ref [] in
    let nslots = ref 0 in
    (* covered vertices only: tombstones and edge-free live tuples never
       allocate a component. A vertex whose only edge is itself is
       covered with no neighbors and becomes a one-vertex component. *)
    Vset.iter
      (fun v ->
        if comp_index.(v) < 0 then begin
          let comp = closure sub v in
          Vset.iter (fun u -> comp_index.(u) <- !nslots) comp;
          incr nslots;
          comps := comp :: !comps
        end)
      covered;
    let components = Array.of_list (List.rev !comps) in
    let free = Vset.diff live covered in
    if Obs.Span.enabled () then
      Obs.Span.annotate
        [
          ( "components",
            Obs.Event.Int (Array.length components + Vset.cardinal free) );
        ];
    {
      substrate = sub;
      priority;
      components;
      free;
      comp_index;
      cache = Hashtbl.create 16;
      counters = fresh_counters ();
    }

  let substrate d = d.substrate
  let priority d = d.priority
  let free d = d.free
  let tally d = d.counters

  (* logical components, in the canonical order (increasing smallest
     vertex); free vertices are synthesized back into singleton sets
     here, so the list is O(free · V/word) — fine for reporting, avoided
     by the evaluation paths below *)
  let components d =
    let multi =
      List.filter
        (fun comp -> not (Vset.is_empty comp))
        (Array.to_list d.components)
    in
    let singles = List.rev_map Vset.singleton (Vset.elements d.free) in
    List.sort
      (fun a b -> compare (Vset.min_elt a) (Vset.min_elt b))
      (List.rev_append singles multi)

  (* live slots of the stored components, ascending *)
  let live_slots d =
    let acc = ref [] in
    for ci = Array.length d.components - 1 downto 0 do
      if not (Vset.is_empty d.components.(ci)) then acc := ci :: !acc
    done;
    !acc

  let fold_components f acc d =
    Array.fold_left
      (fun acc comp -> if Vset.is_empty comp then acc else f acc comp)
      acc d.components

  let component_count d =
    fold_components (fun acc _ -> acc + 1) (Vset.cardinal d.free) d

  let max_component d =
    fold_components
      (fun acc comp -> max acc (Vset.cardinal comp))
      (if Vset.is_empty d.free then 0 else 1)
      d

  (* an immutable snapshot, so callers can diff across a run *)
  let counters d = { d.counters with cache_hits = d.counters.cache_hits }

  let reset_counters d =
    let z = d.counters in
    z.cache_hits <- 0;
    z.cache_misses <- 0;
    z.component_repairs <- 0;
    z.combos_streamed <- 0;
    z.components_examined <- 0;
    z.early_exits <- 0;
    z.deltas_applied <- 0;
    z.edges_added <- 0;
    z.edges_removed <- 0;
    z.components_dirtied <- 0;
    z.cache_evicted <- 0;
    z.cache_retained <- 0

  let reset_cache d = Hashtbl.reset d.cache
  let pp_counters = pp_counters

  let component_of d v =
    if v < 0 || v >= S.size d.substrate || not (S.is_live d.substrate v) then
      invalid_arg (module_name ^ ".component_of");
    let ci = d.comp_index.(v) in
    if ci < 0 then Vset.singleton v else d.components.(ci)

  (* --- incremental maintenance ------------------------------------------ *)

  (* Components and cache after a substrate delta: only components
     actually reached by the delta are recomputed, and only their cache
     entries die. By the delta invariants (added edges touch an inserted
     vertex, removed edges a deleted one), a component none of whose
     vertices was deleted or gained an edge is bit-for-bit unchanged in
     the new instance — its repair lists, computed from the induced
     sub-instance, stay valid under its old slot. Free vertices reached
     by the delta re-enter the recomputation scope; a recomputed
     component lands back in the free set exactly when no edge covers
     it. *)
  let apply_delta d sub priority delta =
    Obs.Span.with_span span_apply_delta @@ fun () ->
    let old_size = Array.length d.comp_index in
    let live' = S.live sub in
    (* old component slots (and free vertices) reached by the delta *)
    let touched = Hashtbl.create 8 in
    let touched_free = ref Vset.empty in
    let touch v =
      (* only vertices of the old instance carry a current slot: inserted
         ids lie past [old_size], and a tombstone's entry is stale *)
      if v < old_size && S.is_live d.substrate v then begin
        let ci = d.comp_index.(v) in
        if ci >= 0 then Hashtbl.replace touched ci ()
        else touched_free := Vset.add v !touched_free
      end
    in
    let edges_added = S.edges_added delta
    and edges_removed = S.edges_removed delta in
    List.iter touch (S.deleted delta);
    List.iter (Vset.iter touch) edges_added;
    List.iter (Vset.iter touch) edges_removed;
    (* survivors of the touched components, touched free vertices and
       every inserted vertex — closed under adjacency in the new instance
       by the delta invariants *)
    let scope =
      Hashtbl.fold
        (fun ci () acc -> Vset.union acc (Vset.inter d.components.(ci) live'))
        touched
        (Vset.union
           (Vset.inter !touched_free live')
           (Vset.of_list (S.inserted delta)))
    in
    let recomputed =
      let seen = ref Vset.empty in
      Vset.fold
        (fun v acc ->
          if Vset.mem v !seen then acc
          else begin
            let comp = closure sub v in
            seen := Vset.union !seen comp;
            comp :: acc
          end)
        scope []
    in
    (* free ⇔ not covered: only a one-vertex component can be uncovered *)
    let covered' = lazy (S.covered sub) in
    let singles, multi =
      List.partition
        (fun comp ->
          Vset.cardinal comp = 1
          && not (Vset.mem (Vset.min_elt comp) (Lazy.force covered')))
        recomputed
    in
    (* slots of untouched components (and their comp_index entries and
       cache keys) carry over verbatim; dirtied slots are freed and reused
       for the recomputed components, growing the array only when a split
       produces more components than were dirtied *)
    let size' = max 1 (S.size sub) in
    let comp_index =
      if size' = old_size then Array.copy d.comp_index
      else begin
        let a = Array.make size' (-1) in
        Array.blit d.comp_index 0 a 0 old_size;
        a
      end
    in
    let freed = Hashtbl.fold (fun ci () acc -> ci :: acc) touched [] in
    let nslots = Array.length d.components in
    let extra = max 0 (List.length multi - List.length freed) in
    let components = Array.make (nslots + extra) Vset.empty in
    Array.blit d.components 0 components 0 nslots;
    List.iter (fun ci -> components.(ci) <- Vset.empty) freed;
    let free_slots = ref freed and fresh = ref nslots in
    List.iter
      (fun comp ->
        let slot =
          match !free_slots with
          | ci :: rest ->
            free_slots := rest;
            ci
          | [] ->
            let ci = !fresh in
            incr fresh;
            ci
        in
        components.(slot) <- comp;
        Vset.iter (fun v -> comp_index.(v) <- slot) comp)
      multi;
    List.iter
      (fun comp -> Vset.iter (fun v -> comp_index.(v) <- -1) comp)
      singles;
    let free =
      List.fold_left Vset.union
        (Vset.diff (Vset.inter d.free live') !touched_free)
        singles
    in
    (* evict the dirtied slots' cache entries; every other entry stays put *)
    let z = d.counters in
    let cache = Hashtbl.copy d.cache in
    Hashtbl.iter
      (fun (family, ci) _ ->
        if Hashtbl.mem touched ci then begin
          Hashtbl.remove cache (family, ci);
          z.cache_evicted <- z.cache_evicted + 1
        end)
      d.cache;
    z.cache_retained <- z.cache_retained + Hashtbl.length cache;
    z.deltas_applied <- z.deltas_applied + 1;
    z.edges_added <- z.edges_added + List.length edges_added;
    z.edges_removed <- z.edges_removed + List.length edges_removed;
    z.components_dirtied <- z.components_dirtied + Hashtbl.length touched;
    if Obs.Span.enabled () then
      Obs.Span.annotate
        [
          ("dirtied", Obs.Event.Int (Hashtbl.length touched));
          ("recomputed", Obs.Event.Int (List.length recomputed));
        ];
    (* the same mutable record carries over: telemetry accumulates across
       the whole update history of the decomposition *)
    { substrate = sub; priority; components; free; comp_index; cache;
      counters = z }

  (* Solve one component: everything here is pure with respect to [d] —
     [S.restrict] rebuilds a compact task-local instance — except the
     counter bumps, which go to the caller-chosen shard [z]. That is what
     lets [parallel_warm] run this on worker domains. *)
  let solve_component z d family comp =
    Obs.Span.with_span span_component
      ~args:
        [
          ("family", Obs.Event.Str (F.name_to_string family));
          ("size", Obs.Event.Int (Vset.cardinal comp));
        ]
    @@ fun () ->
    z.cache_misses <- z.cache_misses + 1;
    let sub, p, mapping = S.restrict d.substrate d.priority comp in
    let repairs =
      List.map
        (fun s -> Vset.map (fun v -> mapping.(v)) s)
        (F.repairs family sub p)
    in
    z.component_repairs <- z.component_repairs + List.length repairs;
    if Obs.Span.enabled () then
      Obs.Span.annotate [ ("repairs", Obs.Event.Int (List.length repairs)) ];
    repairs

  (* Is this one of the synthesized singleton components of a free
     vertex? Free vertices are covered by no edge, so their only
     preferred repair (for every family) is the tuple itself; serving it
     from the free set keeps clean tuples out of the cache. *)
  let free_singleton d comp =
    Vset.cardinal comp = 1 && d.comp_index.(Vset.min_elt comp) < 0

  let preferred_within family d comp =
    if free_singleton d comp then begin
      d.counters.cache_hits <- d.counters.cache_hits + 1;
      [ comp ]
    end
    else begin
      let key = (family, d.comp_index.(Vset.min_elt comp)) in
      match Hashtbl.find_opt d.cache key with
      | Some repairs ->
        d.counters.cache_hits <- d.counters.cache_hits + 1;
        repairs
      | None ->
        let repairs = solve_component d.counters d family comp in
        Hashtbl.replace d.cache key repairs;
        repairs
    end

  (* --- the parallel cache fill ------------------------------------------ *)

  let parallel_warm family d todo =
    (* [todo]: (slot, component) pairs, ascending slot order. Each index
       is an independent component solve; counters shard per worker lane
       and the submitting domain publishes the cache writes in slot order
       after the join — workers never touch [d.cache]. *)
    let todo = Array.of_list todo in
    let n = Array.length todo in
    let results = Array.make n [] in
    let shards = Array.init (Pool.jobs ()) (fun _ -> fresh_counters ()) in
    Pool.parallel_for ~n (fun ~worker i ->
        let _, comp = todo.(i) in
        results.(i) <- solve_component shards.(worker) d family comp);
    Array.iteri
      (fun i (ci, _) -> Hashtbl.replace d.cache (family, ci) results.(i))
      todo;
    Array.iter (fun z -> merge_counters d.counters z) shards

  let warm_slots family d slots =
    (* equivalent to a sequential [preferred_within] sweep over the
       slots: one cache hit per already-cached component, one miss (plus
       a component span and the repairs count) per filled one *)
    let todo =
      List.filter_map
        (fun ci ->
          if Hashtbl.mem d.cache (family, ci) then begin
            d.counters.cache_hits <- d.counters.cache_hits + 1;
            None
          end
          else Some (ci, d.components.(ci)))
        slots
    in
    let solve (ci, comp) =
      Hashtbl.replace d.cache (family, ci)
        (solve_component d.counters d family comp)
    in
    match todo with
    | [] -> ()
    | [ one ] -> solve one
    | todo ->
      if Pool.jobs () <= 1 || Pool.in_parallel_region () then
        List.iter solve todo
      else parallel_warm family d todo

  let warm family d = warm_slots family d (live_slots d)

  let count_within family d comp =
    if free_singleton d comp then begin
      d.counters.cache_hits <- d.counters.cache_hits + 1;
      1
    end
    else begin
      let key = (family, d.comp_index.(Vset.min_elt comp)) in
      match Hashtbl.find_opt d.cache key with
      | Some repairs ->
        d.counters.cache_hits <- d.counters.cache_hits + 1;
        List.length repairs
      | None ->
        (* counting path: stream the family over the sub-instance without
           materializing the repair lists (and without populating the
           cache — a later [preferred_within] still owns that) *)
        Obs.Span.with_span span_count
          ~args:
            [
              ("family", Obs.Event.Str (F.name_to_string family));
              ("size", Obs.Event.Int (Vset.cardinal comp));
            ]
        @@ fun () ->
        d.counters.cache_misses <- d.counters.cache_misses + 1;
        let sub, p, _mapping = S.restrict d.substrate d.priority comp in
        let n = ref 0 in
        F.iter family sub p (fun _ -> incr n);
        !n
    end

  let count family d =
    (* warm the cache (in parallel when the pool has domains), then fold
       the per-slot list lengths; free vertices contribute factor 1 *)
    warm family d;
    List.fold_left
      (fun acc ci ->
        sat_mul acc (List.length (Hashtbl.find d.cache (family, ci))))
      1 (live_slots d)

  (* --- ground certainty -------------------------------------------------- *)

  let demand_of_clause d clause =
    Ground.of_clause
      ~rel_name:(Schema.name (S.schema d.substrate))
      ~index:(S.index d.substrate) clause

  (* A clause is satisfiable by a preferred repair iff each touched
     component has a preferred repair meeting the clause's demands there
     (the families factorize over components and are non-empty on the
     untouched ones). *)
  let clause_satisfiable family d { Ground.required; forbidden } =
    (* a free vertex belongs to every preferred repair: forbidding one
       kills the clause outright, requiring one costs nothing *)
    if not (Vset.is_empty (Vset.inter forbidden d.free)) then false
    else begin
      let touched =
        Vset.fold
          (fun v acc ->
            let ci = d.comp_index.(v) in
            if ci >= 0 then Vset.add ci acc else acc)
          (Vset.union required forbidden)
          Vset.empty
      in
      (* with pool domains available, fill the touched components' repair
         lists in parallel first; the per-component demand checks below
         are then cache hits. (jobs = 1 keeps the lazy sequential sweep
         with its mid-loop early exit.) *)
      if
        Pool.jobs () > 1
        && (not (Pool.in_parallel_region ()))
        && Vset.cardinal touched > 1
      then warm_slots family d (Vset.elements touched);
      let remaining = ref (Vset.cardinal touched) in
      try
        Vset.iter
          (fun ci ->
            d.counters.components_examined <-
              d.counters.components_examined + 1;
            decr remaining;
            let comp = d.components.(ci) in
            let req = Vset.inter required comp
            and forb = Vset.inter forbidden comp in
            let ok =
              List.exists
                (fun r ->
                  Vset.subset req r && Vset.is_empty (Vset.inter forb r))
                (preferred_within family d comp)
            in
            if not ok then begin
              if !remaining > 0 then
                d.counters.early_exits <- d.counters.early_exits + 1;
              raise Stop
            end)
          touched;
        true
      with Stop -> false
    end

  let some_preferred_satisfies family d q =
    match Query.Transform.ground_dnf q with
    | Error e -> Error e
    | Ok clauses ->
      List.fold_left
        (fun acc clause ->
          match acc with
          | Error _ | Ok true -> acc
          | Ok false -> (
            match demand_of_clause d clause with
            | Error e -> Error e
            | Ok None -> Ok false
            | Ok (Some demand) -> Ok (clause_satisfiable family d demand)))
        (Ok false) clauses

  let certainty_ground family d q =
    if not (Query.Ast.is_ground q) then
      Error "certainty_ground: query is not ground"
    else
      match some_preferred_satisfies family d (Query.Ast.Not q) with
      | Error e -> Error e
      | Ok false -> Ok Cqa.Certainly_true
      | Ok true -> (
        match some_preferred_satisfies family d q with
        | Error e -> Error e
        | Ok false -> Ok Cqa.Certainly_false
        | Ok true -> Ok Cqa.Ambiguous)

  (* --- streaming over the cross product ---------------------------------- *)

  (* The per-component preferred repairs, as arrays for cheap indexing.
     Free vertices do not appear here — they belong to every combination
     and are seeded into the accumulators by the consumers below. *)
  let repair_lists family d =
    warm family d;
    Array.of_list
      (List.map
         (fun ci -> Array.of_list (Hashtbl.find d.cache (family, ci)))
         (live_slots d))

  let some_empty lists = Array.exists (fun l -> Array.length l = 0) lists

  (* Raises the substrate's empty-family exception if any component
     contributes nothing: the cross product would be empty, which
     non-emptiness of every family rules out. *)
  let repair_matrix family d =
    let lists = repair_lists family d in
    if some_empty lists then raise (S.empty_family family);
    lists

  let iter family d f =
    let lists = repair_matrix family d in
    let k = Array.length lists in
    let rec go i acc =
      if i = k then begin
        d.counters.combos_streamed <- d.counters.combos_streamed + 1;
        f acc
      end
      else Array.iter (fun s -> go (i + 1) (Vset.union acc s)) lists.(i)
    in
    (* with no components the single repair keeps exactly the free
       tuples *)
    go 0 d.free

  let exists family d pred =
    try
      iter family d (fun r -> if pred r then raise Stop);
      false
    with Stop -> true

  let for_all family d pred = not (exists family d (fun r -> not (pred r)))

  let member family d r =
    Vset.subset r (S.live d.substrate)
    && Vset.subset d.free r
    && Array.for_all
         (fun comp ->
           Vset.is_empty comp
           ||
           let local = Vset.inter r comp in
           List.exists (Vset.equal local) (preferred_within family d comp))
         d.components

  let one family d =
    let lists = repair_lists family d in
    if some_empty lists then None
    else
      Some (Array.fold_left (fun acc l -> Vset.union acc l.(0)) d.free lists)

  let evaluate_in_repair d r q = S.evaluate_in_repair d.substrate r q

  (* Certainty of a quantified query by deviation scan + product fallback.

     General (non-ground) queries do not reduce to per-component
     verdicts: certainty is about the *combinations*, and a query can
     hold in every single-deviation neighbour of a baseline repair yet
     fail in a repair differing in two components at once. So:
     - pass 1 scans all repairs at Hamming component-distance <= 1 from a
       baseline; any disagreement settles [Ambiguous] early, after
       enumerating only sum-per-component many repairs (exp in the
       largest component, not the total);
     - pass 2, needed only for a certain verdict when >= 2 components
       have more than one preferred repair, walks the full cross product.

     Both passes parallelize over independent slices of their search
     space: pass 1 over components (each lane scans one component's
     deviations), pass 2 over the first component's repair choices (each
     lane owns a sub-product). A shared stop flag cancels the remaining
     work the moment any lane finds a disagreement — the verdict is
     scheduling-independent because every lane looks for the same
     predicate, only how much counting happens before the exit varies. *)
  let certainty_streaming family d q =
    let eval r = evaluate_in_repair d r q in
    let lists = repair_matrix family d in
    let k = Array.length lists in
    if Obs.Span.enabled () then
      Obs.Span.annotate [ ("route", Obs.Event.Str "deviation-scan") ];
    if k = 0 then begin
      d.counters.combos_streamed <- d.counters.combos_streamed + 1;
      if eval d.free then Cqa.Certainly_true else Cqa.Certainly_false
    end
    else begin
      let base = Array.map (fun l -> l.(0)) lists in
      (* pre.(i) = free + union of base.(0..i-1); suf.(i) = union of
         base.(i..k-1) — so pre.(k) is the full baseline repair *)
      let pre = Array.make (k + 1) d.free in
      for i = 0 to k - 1 do
        pre.(i + 1) <- Vset.union pre.(i) base.(i)
      done;
      let suf = Array.make (k + 1) Vset.empty in
      for i = k - 1 downto 0 do
        suf.(i) <- Vset.union suf.(i + 1) base.(i)
      done;
      d.counters.combos_streamed <- d.counters.combos_streamed + 1;
      let v0 = eval pre.(k) in
      let parallel = Pool.jobs () > 1 && not (Pool.in_parallel_region ()) in
      (* pass 1: single-component deviations from the baseline *)
      let deviation_found =
        if not parallel then begin
          try
            for i = 0 to k - 1 do
              d.counters.components_examined <-
                d.counters.components_examined + 1;
              for j = 1 to Array.length lists.(i) - 1 do
                d.counters.combos_streamed <- d.counters.combos_streamed + 1;
                let r =
                  Vset.union (Vset.union pre.(i) lists.(i).(j)) suf.(i + 1)
                in
                if eval r <> v0 then begin
                  d.counters.early_exits <- d.counters.early_exits + 1;
                  raise Stop
                end
              done
            done;
            false
          with Stop -> true
        end
        else begin
          let shards =
            Array.init (Pool.jobs ()) (fun _ -> fresh_counters ())
          in
          let stop = Atomic.make false in
          let found = Atomic.make false in
          Pool.parallel_for ~stop ~n:k (fun ~worker i ->
              let z = shards.(worker) in
              z.components_examined <- z.components_examined + 1;
              let len = Array.length lists.(i) in
              let j = ref 1 in
              while !j < len && not (Atomic.get stop) do
                z.combos_streamed <- z.combos_streamed + 1;
                let r =
                  Vset.union (Vset.union pre.(i) lists.(i).(!j)) suf.(i + 1)
                in
                if eval r <> v0 then begin
                  z.early_exits <- z.early_exits + 1;
                  Atomic.set found true;
                  Atomic.set stop true
                end;
                incr j
              done);
          Array.iter (fun z -> merge_counters d.counters z) shards;
          Atomic.get found
        end
      in
      if deviation_found then Cqa.Ambiguous
      else begin
        (* pass 2: a certain verdict needs the full product whenever two
           or more components can deviate simultaneously *)
        let multi =
          Array.fold_left
            (fun acc l -> if Array.length l > 1 then acc + 1 else acc)
            0 lists
        in
        if multi < 2 then
          if v0 then Cqa.Certainly_true else Cqa.Certainly_false
        else begin
          if Obs.Span.enabled () then
            Obs.Span.annotate [ ("route", Obs.Event.Str "full-product") ];
          let disagreed =
            if not parallel then begin
              let rec go i acc =
                if i = k then begin
                  d.counters.combos_streamed <- d.counters.combos_streamed + 1;
                  if eval acc <> v0 then begin
                    d.counters.early_exits <- d.counters.early_exits + 1;
                    raise Stop
                  end
                end
                else
                  Array.iter (fun s -> go (i + 1) (Vset.union acc s)) lists.(i)
              in
              try
                go 0 d.free;
                false
              with Stop -> true
            end
            else begin
              let shards =
                Array.init (Pool.jobs ()) (fun _ -> fresh_counters ())
              in
              let stop = Atomic.make false in
              let found = Atomic.make false in
              Pool.parallel_for ~stop ~n:(Array.length lists.(0))
                (fun ~worker i0 ->
                  let z = shards.(worker) in
                  let rec go i acc =
                    if Atomic.get stop then ()
                    else if i = k then begin
                      z.combos_streamed <- z.combos_streamed + 1;
                      if eval acc <> v0 then begin
                        z.early_exits <- z.early_exits + 1;
                        Atomic.set found true;
                        Atomic.set stop true
                      end
                    end
                    else
                      Array.iter
                        (fun s -> go (i + 1) (Vset.union acc s))
                        lists.(i)
                  in
                  go 1 (Vset.union d.free lists.(0).(i0)));
              Array.iter (fun z -> merge_counters d.counters z) shards;
              Atomic.get found
            end
          in
          if disagreed then Cqa.Ambiguous
          else if v0 then Cqa.Certainly_true
          else Cqa.Certainly_false
        end
      end
    end

  let certainty family d q =
    if not (Query.Ast.is_closed q) then
      invalid_arg (module_name ^ ".certainty: open query");
    Obs.Span.with_span span_certainty
      ~args:[ ("family", Obs.Event.Str (F.name_to_string family)) ]
    @@ fun () ->
    let before = if Obs.Span.enabled () then Some (counters d) else None in
    let verdict =
      if Query.Ast.is_ground q then
        match certainty_ground family d q with
        | Ok cert ->
          Obs.Span.annotate [ ("route", Obs.Event.Str "ground") ];
          cert
        | Error _ ->
          (* unknown relation, arity mismatch, ...: fall back to the
             generic evaluator so the verdict matches the whole-graph
             path *)
          certainty_streaming family d q
      else certainty_streaming family d q
    in
    (match before with
    | None -> ()
    | Some b ->
      let z = d.counters in
      Obs.Span.annotate
        [
          ("verdict", Obs.Event.Str (Cqa.certainty_to_string verdict));
          ("cache_hits", Obs.Event.Int (z.cache_hits - b.cache_hits));
          ("cache_misses", Obs.Event.Int (z.cache_misses - b.cache_misses));
          ( "combos_streamed",
            Obs.Event.Int (z.combos_streamed - b.combos_streamed) );
          ( "components_examined",
            Obs.Event.Int (z.components_examined - b.components_examined) );
          ("early_exits", Obs.Event.Int (z.early_exits - b.early_exits));
        ]);
    verdict

  let consistent_answer family d q =
    let holds r = evaluate_in_repair d r q in
    if Query.Ast.is_ground q then
      match some_preferred_satisfies family d (Query.Ast.Not q) with
      | Ok sat -> not sat
      | Error _ -> for_all family d holds
    else begin
      if not (Query.Ast.is_closed q) then
        invalid_arg (module_name ^ ".consistent_answer: open query");
      for_all family d holds
    end

  (* per-component vertices are gathered into one list and packed once:
     folding [Vset.union] into a set as wide as the free vertices would
     copy that set once per component *)
  let union_per_component pick family d =
    let picked =
      fold_components
        (fun acc comp ->
          Vset.fold List.cons (pick (preferred_within family d comp)) acc)
        [] d
    in
    Vset.union d.free (Vset.of_list picked)

  (* conflict-free tuples are in every preferred repair *)
  let certain_tuples =
    union_per_component (function
      | [] -> Vset.empty
      | first :: rest -> List.fold_left Vset.inter first rest)

  let possible_tuples =
    union_per_component (List.fold_left Vset.union Vset.empty)

  (* --- the update journal ------------------------------------------------ *)

  let journal engine = { engine; history = [] }
  let engine j = j.engine
  let history_depth j = List.length j.history
  let drop_history j = j.history <- []

  (* One batch through every layer; the caller handles history. Every
     layer validates before mutating anything, so an [Error] leaves [j]
     as it was. *)
  let apply_batch l j ops =
    Obs.Span.with_span l.span
      ~args:[ ("ops", Obs.Event.Int (List.length ops)) ]
    @@ fun () ->
    let insert, delete = split ops in
    let d = j.engine in
    match l.patch d.substrate ~insert ~delete with
    | Error e -> Error e
    | Ok (sub, delta) -> (
      let dropped = Vset.of_list (S.deleted delta) in
      match l.reprioritize sub d.priority ~dropped delta with
      | Error e -> Error e
      | Ok priority ->
        let before = counters d in
        let d' = apply_delta d sub priority delta in
        let after = d'.counters in
        j.engine <- d';
        let report =
          {
            inserted = List.length (S.inserted delta);
            deleted = List.length (S.deleted delta);
            edges_added = after.edges_added - before.edges_added;
            edges_removed = after.edges_removed - before.edges_removed;
            components_dirtied =
              after.components_dirtied - before.components_dirtied;
            cache_evicted = after.cache_evicted - before.cache_evicted;
            cache_retained = after.cache_retained - before.cache_retained;
          }
        in
        l.accepted ~insert ~delete report;
        Obs.Metric.observe l.batch_ops (Float.of_int (List.length ops));
        Ok report)

  let apply l j ops =
    match apply_batch l j ops with
    | Error e -> Error e
    | Ok report ->
      let insert, delete = split ops in
      let inverse =
        List.map (fun x -> Delete x) insert
        @ List.map (fun x -> Insert x) delete
      in
      j.history <- inverse :: j.history;
      Ok report

  let undo l j =
    match j.history with
    | [] -> Error "nothing to undo"
    | inverse :: rest -> (
      match apply_batch l j inverse with
      | Error e -> Error e (* unreachable for inverses of accepted batches *)
      | Ok report ->
        j.history <- rest;
        Ok report)
end
