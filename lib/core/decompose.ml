open Relational
open Graphs

(* The binary conflict graph as a component-engine substrate. *)
module Binary = struct
  type t = Conflict.t
  type priority = Priority.t
  type delta = Conflict.delta
  type family = Family.name

  let prefix = "decompose"
  let cqa_prefix = "cqa"
  let empty_family family = Cqa.Empty_family family
  let live = Conflict.live
  let size = Conflict.size
  let is_live = Conflict.is_live
  let schema = Conflict.schema
  let index = Conflict.index

  let covered c =
    Vset.diff (Conflict.live c) (Undirected.isolated (Conflict.graph c))

  let neighbors c v = Undirected.neighbors (Conflict.graph c) v
  let inserted (delta : delta) = delta.inserted
  let deleted (delta : delta) = delta.deleted
  let edge (u, v) = Vset.of_list [ u; v ]
  let edges_added (delta : delta) = List.map edge delta.edges_added
  let edges_removed (delta : delta) = List.map edge delta.edges_removed

  let restrict c p comp =
    let sub = Conflict.build (Conflict.fds c) (Conflict.relation_of_vset c comp) in
    let mapping, arcs =
      Component.induced_arcs ~dominated:(Priority.dominated p) comp
    in
    (sub, Priority.of_arcs_exn sub arcs, mapping)

  let evaluate_in_repair = Cqa.evaluate_in_repair
end

include Component.Make (Binary) (Family)

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

let conflict = substrate

let consistent_answers_open family d q =
  Obs.Span.with_span "cqa.open"
    ~args:[ ("family", Obs.Event.Str (Family.name_to_string family)) ]
  @@ fun () ->
  let result = ref None in
  (try
     iter family d (fun r ->
         let free, rows =
           Planner.Engine.answers_relation (Repair.to_relation (conflict d) r) q
         in
         match !result with
         | None -> result := Some (free, rows)
         | Some (free0, rows0) ->
           let present = Hashtbl.create (List.length rows) in
           List.iter (fun row -> Hashtbl.replace present row ()) rows;
           let rows0 = List.filter (fun row -> Hashtbl.mem present row) rows0 in
           result := Some (free0, rows0);
           if rows0 = [] then begin
             (tally d).early_exits <- (tally d).early_exits + 1;
             raise Component.Stop
           end)
   with Component.Stop -> ());
  match !result with
  | Some answer -> answer
  | None -> assert false (* iter raises Empty_family before this *)

(* --- aggregates ----------------------------------------------------------- *)

let attr_position d attr =
  let schema = Conflict.schema (conflict d) in
  match Schema.position schema attr with
  | None ->
    Error
      (Printf.sprintf "schema %s has no attribute %S" (Schema.name schema) attr)
  | Some i ->
    if Schema.ty_at schema i <> Schema.TInt then
      Error (Printf.sprintf "attribute %S is not numeric" attr)
    else Ok i

let aggregate_range family d agg =
  let pos =
    match agg with
    | Aggregate.Count_all -> Ok (-1)
    | Aggregate.Sum a | Aggregate.Min a | Aggregate.Max a -> attr_position d a
  in
  match pos with
  | Error e -> Error e
  | Ok pos ->
    let value_of v =
      match Value.as_int (Tuple.get (Conflict.tuple (conflict d) v) pos) with
      | Some n -> n
      | None -> assert false
    in
    (* the aggregate's value inside one component repair *)
    let local s =
      match agg with
      | Aggregate.Count_all -> Some (Vset.cardinal s)
      | Aggregate.Sum _ ->
        Some (Vset.fold (fun v acc -> acc + value_of v) s 0)
      | Aggregate.Min _ ->
        Vset.fold
          (fun v acc ->
            Some (match acc with None -> value_of v | Some m -> min m (value_of v)))
          s None
      | Aggregate.Max _ ->
        Vset.fold
          (fun v acc ->
            Some (match acc with None -> value_of v | Some m -> max m (value_of v)))
          s None
    in
    (* per-component extremes of the local value *)
    let extremes comp =
      let values =
        List.filter_map local (preferred_within family d comp)
      in
      match values with
      | [] -> None
      | v :: vs -> Some (List.fold_left min v vs, List.fold_left max v vs)
    in
    (* a free vertex is in every repair, so it contributes one fixed
       value — no singleton component is ever materialized for it *)
    let per_component =
      Vset.fold
        (fun v acc ->
          let e =
            match agg with
            | Aggregate.Count_all -> (1, 1)
            | _ ->
              let x = value_of v in
              (x, x)
          in
          e :: acc)
        (free d)
        (List.rev
           (fold_components
              (fun acc comp ->
                match extremes comp with None -> acc | Some e -> e :: acc)
              [] d))
    in
    let range =
      match agg with
      | Aggregate.Count_all | Aggregate.Sum _ ->
        (* additive across components *)
        let glb = List.fold_left (fun a (lo, _) -> a + lo) 0 per_component in
        let lub = List.fold_left (fun a (_, hi) -> a + hi) 0 per_component in
        Aggregate.{ glb = Some glb; lub = Some lub }
      | Aggregate.Min _ ->
        (* global MIN = min over components of the chosen local MIN *)
        let fold f init = List.fold_left f init per_component in
        let glb = fold (fun a (lo, _) -> min a lo) max_int in
        let lub = fold (fun a (_, hi) -> min a hi) max_int in
        if per_component = [] then Aggregate.{ glb = None; lub = None }
        else Aggregate.{ glb = Some glb; lub = Some lub }
      | Aggregate.Max _ ->
        let fold f init = List.fold_left f init per_component in
        let glb = fold (fun a (lo, _) -> max a lo) min_int in
        let lub = fold (fun a (_, hi) -> max a hi) min_int in
        if per_component = [] then Aggregate.{ glb = None; lub = None }
        else Aggregate.{ glb = Some glb; lub = Some lub }
    in
    Ok range
