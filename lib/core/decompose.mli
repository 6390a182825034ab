(** Component-wise evaluation of preferred repairs over the binary
    conflict graph: the {!Component} engine instantiated with
    {!Conflict} as substrate and the paper's families ({!Family}).

    Free vertices are the conflict-free tuples. An empty preferred-repair
    family raises {!Cqa.Empty_family}. Correctness of the factorization
    is cross-validated against the monolithic engines in the test
    suite. *)

type counters = Component.counters = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable component_repairs : int;
  mutable combos_streamed : int;
  mutable components_examined : int;
  mutable early_exits : int;
  mutable deltas_applied : int;
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable components_dirtied : int;
  mutable cache_evicted : int;
  mutable cache_retained : int;
}
(** See {!Component.counters}. *)

include
  Component.ENGINE
    with type substrate := Conflict.t
     and type priority := Priority.t
     and type delta := Conflict.delta
     and type family := Family.name

val conflict : t -> Conflict.t

(** {2 Binary-only evaluation} *)

val consistent_answers_open :
  Family.name -> t -> Query.Ast.t -> string list * Relational.Value.t list list
(** Free variables (sorted) and the bindings answering the query in
    every preferred repair, intersected streamingly over {!iter} with an
    early exit once the running intersection empties. Raises
    [Cqa.Empty_family] on a P1 violation. *)

val aggregate_range :
  Family.name -> t -> Aggregate.agg -> (Aggregate.range, string) result
(** Aggregate ranges over the preferred repairs, summed/combined across
    components: SUM and COUNT ranges add; MIN/MAX combine monotonically.
    Exponential only in component sizes. *)

