(** Component decomposition of the conflict hypergraph: the {!Component}
    engine instantiated with {!Hyper} as substrate and the
    Staworko–Chomicki families ({!Hfamily}).

    Hyperedges connect their vertices, so the hypergraph splits into
    connected components and Rep/Pareto/Global factorize over them. Free
    vertices are those covered by no hyperedge; a vertex carrying a
    singleton edge forms a one-vertex component whose only repair is
    the empty set. *)

type counters = Component.counters

exception Empty_family of Hfamily.name
(** Raised by the streaming paths when a component contributes no
    preferred repair — which non-emptiness of all three families rules
    out; the exception exists for the same defensive reason as
    {!Cqa.Empty_family}. *)

include
  Component.ENGINE
    with type substrate := Hyper.t
     and type priority := Hpriority.t
     and type delta := Hyper.delta
     and type family := Hfamily.name

val hyper : t -> Hyper.t
