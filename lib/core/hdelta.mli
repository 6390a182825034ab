(** Incremental updates for denial-constraint instances — {!Delta} on
    the hyperedge substrate.

    The {!Hdecompose} journal: {!apply} pushes a batch of
    inserts/deletes through the hypergraph, the priority and the
    decomposition (each validates before mutating, so a rejected batch
    leaves the handle untouched) and records the inverse batch for
    {!undo}. *)

open Relational

type op = Delta.op = Insert of Tuple.t | Delete of Tuple.t

type report = Component.report

type t

val create :
  ?arcs:(int * int) list ->
  Constraints.Denial.t list ->
  Relation.t ->
  (t, string) result
(** Build the hypergraph, validate the priority arcs against it and
    decompose. [arcs] default to none (the Rep setting). *)

val apply : t -> op list -> (report, string) result
(** Deletes are applied before inserts, as in {!Hyper.apply_delta}.
    Priority arcs touching a deleted vertex — or whose hyperedge died
    through a third vertex — are discarded. *)

val undo : t -> (report, string) result
(** Reverse the most recent accepted batch. *)

val history_depth : t -> int
val drop_history : t -> unit

val hyper : t -> Hyper.t
val priority : t -> Hpriority.t
val decompose : t -> Hdecompose.t
val relation : t -> Relation.t

val pp_report : Format.formatter -> report -> unit
