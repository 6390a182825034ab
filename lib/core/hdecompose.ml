open Graphs

exception Empty_family of Hfamily.name

(* The conflict hypergraph as a component-engine substrate. A vertex is
   covered when some hyperedge contains it, so a vertex whose only edge
   is [{v}] has no neighbors yet forms its own one-vertex component,
   whose only repair is empty. Sub-instances rebuild through
   [Hyper.build], whose violation re-detection on the induced tuples
   reproduces exactly the component's edges: a witness among component
   tuples is a witness of the full instance, and minimality is
   hereditary. *)
module Hyperedges = struct
  type t = Hyper.t
  type priority = Hpriority.t
  type delta = Hyper.delta
  type family = Hfamily.name

  let prefix = "hdecompose"
  let cqa_prefix = "hcqa"
  let empty_family family = Empty_family family
  let live = Hyper.live
  let size = Hyper.size
  let is_live = Hyper.is_live
  let schema = Hyper.schema
  let index = Hyper.index
  let covered h = Hypergraph.covered (Hyper.hypergraph h)
  let neighbors h v = Hypergraph.neighbors (Hyper.hypergraph h) v
  let inserted (delta : delta) = delta.inserted
  let deleted (delta : delta) = delta.deleted
  let edges_added (delta : delta) = delta.edges_added
  let edges_removed (delta : delta) = delta.edges_removed

  let restrict h p comp =
    let sub = Hyper.build (Hyper.denials h) (Hyper.to_relation h comp) in
    let mapping, arcs =
      Component.induced_arcs ~dominated:(Hpriority.dominated p) comp
    in
    (sub, Hpriority.of_arcs_exn sub arcs, mapping)

  let evaluate_in_repair h r q =
    Planner.Engine.holds_relation (Hyper.to_relation h r) q
end

include Component.Make (Hyperedges) (Hfamily)

type counters = Component.counters

let hyper = substrate
