open Relational

type op = Delta.op = Insert of Tuple.t | Delete of Tuple.t
type report = Component.report
type t = Hdecompose.journal

let create ?(arcs = []) denials relation =
  match Hyper.build denials relation with
  | exception Invalid_argument e -> Error e
  | hyper -> (
    match Hpriority.of_arcs hyper arcs with
    | Error e -> Error (Hpriority.error_to_string e)
    | Ok priority -> Ok (Hdecompose.journal (Hdecompose.make hyper priority)))

let m_batch_ops =
  Obs.Registry.histogram ~buckets:Obs.Metric.size_buckets
    ~help:"Operations per accepted hyper Delta batch"
    "prefdb_hyper_delta_batch_ops"

(* Hyperedges carry no preference rule: a batch only drops the arcs its
   deletions invalidate. *)
let layers =
  {
    Hdecompose.span = "hdelta.apply";
    patch = Hyper.apply_delta;
    reprioritize =
      (fun hyper priority ~dropped _delta ->
        Result.map_error Hpriority.error_to_string
          (Hpriority.update hyper priority ~dropped ~oriented:[]));
    batch_ops = m_batch_ops;
    accepted = (fun ~insert:_ ~delete:_ _ -> ());
  }

let apply t ops = Hdecompose.apply layers t ops
let undo t = Hdecompose.undo layers t
let history_depth = Hdecompose.history_depth
let drop_history = Hdecompose.drop_history
let decompose = Hdecompose.engine
let hyper t = Hdecompose.hyper (decompose t)
let priority t = Hdecompose.priority (decompose t)
let relation t = Hyper.relation (hyper t)
let pp_report = Component.pp_report ~edges:"hyperedge(s)"
