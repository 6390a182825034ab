open Relational

type op = Component.op = Insert of Tuple.t | Delete of Tuple.t

type report = Component.report = {
  inserted : int;
  deleted : int;
  edges_added : int;
  edges_removed : int;
  components_dirtied : int;
  cache_evicted : int;
  cache_retained : int;
}

type t = {
  rule : Pref_rules.rule;
  journal : Decompose.journal;
  mutable colstats : Planner.Stats.t option;
      (* exact column statistics, built on first demand and patched in
         place by every subsequent batch (undo included) *)
}

let create ?(rule = fun _ _ -> false) fds relation =
  match Conflict.build fds relation with
  | exception Invalid_argument e -> Error e
  | conflict -> (
    match Pref_rules.apply conflict rule with
    | Error e -> Error e
    | Ok priority ->
      Ok
        {
          rule;
          journal = Decompose.journal (Decompose.make conflict priority);
          colstats = None;
        })

let m_batch_ops =
  Obs.Registry.histogram ~buckets:Obs.Metric.size_buckets
    ~help:"Operations per accepted Delta batch" "prefdb_delta_batch_ops"

let m_evicted =
  Obs.Registry.counter
    ~help:"Decompose component caches evicted by Delta batches"
    "prefdb_decompose_cache_evictions_total"

(* The binary layers under the shared journal: the rule orients only the
   new conflict edges, and an accepted batch patches the column
   statistics with exactly the tuples the relation applied. *)
let layers t =
  {
    Decompose.span = "delta.apply";
    patch = Conflict.apply_delta;
    reprioritize =
      (fun conflict priority ~dropped delta ->
        let oriented =
          Pref_rules.orient conflict t.rule delta.Conflict.edges_added
        in
        Result.map_error Priority.error_to_string
          (Priority.update conflict priority ~dropped ~oriented));
    batch_ops = m_batch_ops;
    accepted =
      (fun ~insert ~delete report ->
        Option.iter
          (fun s -> Planner.Stats.patch s ~delete ~insert)
          t.colstats;
        Obs.Metric.incr ~by:report.cache_evicted m_evicted);
  }

let apply t ops = Decompose.apply (layers t) t.journal ops
let undo t = Decompose.undo (layers t) t.journal
let history_depth t = Decompose.history_depth t.journal
let drop_history t = Decompose.drop_history t.journal
let decompose t = Decompose.engine t.journal
let conflict t = Decompose.conflict (decompose t)
let priority t = Decompose.priority (decompose t)
let relation t = Conflict.relation (conflict t)

let column_stats t =
  match t.colstats with
  | Some s -> s
  | None ->
    let s = Planner.Stats.scan (relation t) in
    t.colstats <- Some s;
    s

let stats_lookup t =
  let name = Schema.name (Relation.schema (relation t)) in
  fun r -> if String.equal r name then Some (column_stats t) else None

let pp_report = Component.pp_report ~edges:"conflict edge(s)"
