(* The four workloads: the store each one serves and the seeded request
   script a client replays against it, with what every response must
   say.  The server only ever sees the store and the request lines; the
   seed decides which facts are asked about and which cliques writes
   touch. *)

module IF = Dbio.Instance_format

type cls = Ground | Quantified | Open | Hyper | Insert | Delete

let classes = [ Ground; Quantified; Open; Hyper; Insert; Delete ]

let cls_name = function
  | Ground -> "ground"
  | Quantified -> "quantified"
  | Open -> "open"
  | Hyper -> "hyper"
  | Insert -> "insert"
  | Delete -> "delete"

let is_write = function Insert | Delete -> true | _ -> false

(* What a response must say.  [Replay] answers are filled in from an
   in-process [Session.exec] on a fresh copy of the same store before
   any server starts; [First_line] answers follow from the generator. *)
type expect = Replay | Exact of string | First_line of string

type req = { cls : cls; shape : string; line : string; mutable expect : expect }

type t = {
  name : string;
  fresh_connections : bool;
      (* one connection per request, as [prefdb serve call] does *)
  spec : unit -> IF.spec;
  components : int;  (* non-trivial conflict components of the store *)
  focus : string;
  in_focus : req -> bool;
      (* the requests behind focus_p50_us / focus_p90_us: the main
         shape of the class the workload measures beyond its ground reads *)
  script : req array;  (* replayed cyclically; a cycle restores the store *)
}

let req cls shape line expect = { cls; shape; line; expect }

(* [pick rng [(w1, f1); ...]] draws [fi ()] with probability wi / sum. *)
let pick rng choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  let r = Random.State.int rng total in
  let rec go r = function
    | [] -> assert false
    | [ (_, f) ] -> f ()
    | (w, f) :: rest -> if r < w then f () else go (r - w) rest
  in
  go r choices

(* How the mixed scripts weigh their classes.  The focus class takes 70%
   of the window's time and the other classes share the remaining 30%
   equally, so throughput mostly tracks the focus class.  A class's
   request weight is its time share divided by its served p50, as
   measured when the benchmark was defined (servebench/README.md has the
   figures).  Within a class the main shape takes 80% of the requests
   and the others share the rest equally: the main shape stays above 70%
   of its class in every seeded script, so the class median sits inside
   one mode.  Focus figures are taken on one shape alone. *)
let main_shape = 80

(* The hyperedge families of Staworko-Chomicki (arXiv:0908.0464) plus
   Rep; Pareto is the main shape. *)
let hyper_family rng =
  let rest = (100 - main_shape) / 2 in
  pick rng
    [ (main_shape, (fun () -> "pareto")); (rest, (fun () -> "rep"));
      (rest, (fun () -> "global")) ]

(* --- paper-read: the paper's Mgr instance -------------------------------- *)

(* The running example of Staworko-Chomicki-Marcinkowski (EDBT 2006);
   read from the repository so the benchmark serves the same instance
   the paper examples and tests use. *)
let mgr_path = Filename.concat "examples" (Filename.concat "data" "mgr.pdb")

let mgr_tuples =
  [|
    ("Mary", "R&D", 40000, 3);
    ("John", "R&D", 10000, 2);
    ("Mary", "IT", 20000, 1);
    ("John", "PR", 30000, 4);
  |]

(* Served p50s: ground 49 us, quantified 68 us, open 68 us, hyper
   158 us; so hyper 70/158, the others 10/p50, in percent of requests. *)
let paper_script rng n =
  Array.init n (fun _ ->
      let name, dept, sal, rep = mgr_tuples.(Random.State.int rng 4) in
      let person = if Random.State.bool rng then "Mary" else "John" in
      pick rng
        [
          ( 22,
            fun () ->
              req Ground "fact"
                (Printf.sprintf "query Mgr('%s', '%s', %d, %d)" name dept sal rep)
                Replay );
          ( 16,
            fun () ->
              pick rng
                [
                  ( main_shape,
                    fun () ->
                      req Quantified "exists-name"
                        (Printf.sprintf "query exists d, s, r. Mgr('%s', d, s, r)"
                           person)
                        Replay );
                  ( 100 - main_shape,
                    fun () ->
                      req Quantified "exists-salary"
                        (Printf.sprintf
                           "query exists n, s, r. Mgr(n, '%s', s, r) and s > %d"
                           dept (sal - 1))
                        Replay );
                ] );
          ( 15,
            fun () ->
              req Open "answers-dept"
                (Printf.sprintf "query Mgr(n, '%s', s, r)" dept)
                Replay );
          ( 47,
            fun () ->
              let fam = hyper_family rng in
              req Hyper fam
                (Printf.sprintf "hyper query %s exists d, s, r. Mgr('%s', d, s, r)"
                   fam person)
                Replay );
        ])

let paper_spec () =
  match IF.parse_file mgr_path with
  | Ok spec -> spec
  | Error e -> failwith (Printf.sprintf "%s: %s" mgr_path e)

(* --- the million-fact clustered store ------------------------------------ *)

let c_groups = 2048
let c_width = 8

let c_facts = 1_000_000

let clustered_spec () =
  let relation, fds =
    Workload.Generator.clustered_conflicts ~facts:c_facts ~groups:c_groups
      ~width:c_width
  in
  { IF.relation; fds; denials = []; provenance = Relational.Provenance.empty;
    prefs = [] }

(* Ground reads, the clique fact as the main shape (A < groups:
   ambiguous under C-Rep without preferences) and the tail fact as the
   other (one consistent lhs group: certainly true).  The two answer at
   different speeds (about 50 us and 120 us served), so the clique shape
   keeps the class median inside one mode, and the tail shape, about 40%
   of the window's time, is the focus. *)
let clustered_read rng =
  pick rng
    [
      ( main_shape,
        fun () ->
          let g = Random.State.int rng c_groups and w = Random.State.int rng c_width in
          req Ground "clique"
            (Printf.sprintf "query R(%d, %d, %d)" g w ((g * c_width) + w))
            (First_line "C-Rep: ambiguous") );
      ( 20,
        fun () ->
          let i = (c_groups * c_width) + Random.State.int rng (c_facts - (c_groups * c_width)) in
          req Ground "tail"
            (Printf.sprintf "query R(%d, 0, %d)" c_groups i)
            (First_line "C-Rep: certainly true") );
    ]

(* Every 20th request of a read/write script is a write: on the chains
   store an insert (about 2.5 ms) then takes about half of the window's
   time, and a delete (about 0.4 ms) and the ground reads the rest. *)
let write_every = 20

(* --- chains: Example 9 generalised --------------------------------------- *)

let ch_components = 256
let ch_size = 8
let ch_stride = ch_size + 1

let chains_spec () =
  let relation, fds =
    Workload.Generator.chain_components ~components:ch_components ~size:ch_size
  in
  { IF.relation; fds; denials = []; provenance = Relational.Provenance.empty;
    prefs = [ IF.Attribute ("B", `Larger) ] }

(* Tuple i (1..size) of component k, as the generator lays it out. *)
let chain_tuple k i =
  let base = k * ch_stride in
  ( base + ((i + 1) / 2),
    (if i mod 2 = 1 then 1 else 2),
    base + (i / 2),
    if i mod 2 = 0 then 1 else 2 )

(* Each run asks about a seeded sample of components: answers are
   checked against an in-process replay, and a [hyper query] rebuilds
   the hypergraph on every request (about 12 ms here), so the sample
   keeps the number of distinct lines to replay small.  Every certainty
   question still spans all components.  Served p50s: ground 50 us,
   quantified 1.76 ms, open 1.32 ms, hyper 12.0 ms; so quantified
   70/1760, the others 10/p50, in tenths of a percent of requests. *)
let chains_script rng n =
  let sample k = Array.init k (fun _ -> Random.State.int rng ch_components) in
  let reads = sample 32 and hypers = sample 4 in
  let tuple ks =
    chain_tuple ks.(Random.State.int rng (Array.length ks)) (1 + Random.State.int rng ch_size)
  in
  Array.init n (fun _ ->
      let a, b, c, d = tuple reads in
      pick rng
        [
          ( 808,
            fun () ->
              req Ground "fact"
                (Printf.sprintf "query R(%d, %d, %d, %d)" a b c d)
                Replay );
          ( 159,
            fun () ->
              pick rng
                [
                  ( main_shape,
                    fun () ->
                      req Quantified "exists-key"
                        (Printf.sprintf "query exists c, d. R(%d, %d, c, d)" a b)
                        Replay );
                  ( 100 - main_shape,
                    fun () ->
                      req Quantified "exists-range"
                        (Printf.sprintf
                           "query exists a, c. R(a, 2, c, 1) and a > %d and a < %d"
                           a (a + ch_stride))
                        Replay );
                ] );
          ( 30,
            fun () ->
              req Open "answers-key"
                (Printf.sprintf "query R(%d, b, c, d)" a)
                Replay );
          ( 3,
            fun () ->
              let a, b, c, d = tuple hypers in
              let fam = hyper_family rng in
              req Hyper fam
                (Printf.sprintf "hyper query %s R(%d, %d, %d, %d)" fam a b c d)
                Replay );
        ])

(* Reads and writes on the chains store.  Reads are ground facts of a
   seeded sample of components; writes touch other components only, so
   no read's answer depends on which write came before it.  Every 20th
   request is a write: an insert of a fresh fact with B = 3 sharing A
   with a chain pair (so it conflicts with both tuples of the pair, and
   is preferred to them), then the delete of that fact. *)
let chains_rw_script rng n =
  let reads = Array.init 32 (fun _ -> Random.State.int rng ch_components) in
  let writable = List.filter (fun k -> not (Array.mem k reads)) (List.init ch_components Fun.id) in
  let writable = Array.of_list writable in
  let pending = ref None and fresh = ref 0 in
  Array.init n (fun i ->
      if (i + 1) mod write_every <> 0 then begin
        let k = reads.(Random.State.int rng (Array.length reads)) in
        let a, b, c, d = chain_tuple k (1 + Random.State.int rng ch_size) in
        req Ground "fact" (Printf.sprintf "query R(%d, %d, %d, %d)" a b c d) Replay
      end
      else
        match !pending with
        | None ->
          let k = writable.(Random.State.int rng (Array.length writable)) in
          let a, _, _, _ = chain_tuple k (1 + (2 * Random.State.int rng (ch_size / 2))) in
          let values = Printf.sprintf "%d 3 %d 1" a (1_000_000 + !fresh) in
          incr fresh;
          pending := Some values;
          req Insert "join-pair" ("insert " ^ values)
            (First_line
               "applied:                +1 tuple(s), -0 tuple(s) (2 conflict edge(s) added, 0 removed)")
        | Some values ->
          pending := None;
          req Delete "leave-pair" ("delete " ^ values)
            (First_line
               "applied:                +0 tuple(s), -1 tuple(s) (0 conflict edge(s) added, 2 removed)"))

(* --- the workload table --------------------------------------------------- *)

let script_length = 4000

let make name seed =
  let rng = Random.State.make [| 0x5e4e; seed |] in
  let n = script_length in
  let w ?(fresh_connections = false) spec components focus in_focus script =
    Some { name; fresh_connections; spec; components; focus; in_focus; script }
  in
  match name with
  | "paper-read" ->
    w ~fresh_connections:true paper_spec 1 "hyper/pareto"
      (fun r -> r.cls = Hyper && r.shape = "pareto") (paper_script rng n)
  | "clustered-1m-read" ->
    w clustered_spec c_groups "ground/tail"
      (fun r -> r.shape = "tail")
      (Array.init n (fun _ -> clustered_read rng))
  | "chains-quantified" ->
    w chains_spec ch_components "quantified/exists-key"
      (fun r -> r.cls = Quantified && r.shape = "exists-key") (chains_script rng n)
  | "chains-rw" ->
    w chains_spec ch_components "insert/join-pair"
      (fun r -> r.cls = Insert && r.shape = "join-pair") (chains_rw_script rng n)
  | _ -> None

let names = [ "paper-read"; "clustered-1m-read"; "chains-quantified"; "chains-rw" ]

(* The first request of every (class, shape) pair: the warm-up pass that
   ends [setup_s].  A write shape's warm-up is followed by its partner
   so the pass leaves the store as it found it. *)
let warmup t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iteri
    (fun i r ->
      if not (Hashtbl.mem seen (r.cls, r.shape)) then begin
        Hashtbl.replace seen (r.cls, r.shape) ();
        if r.cls = Insert then begin
          out := r :: !out;
          (* the matching delete is the next write in the script *)
          let rec next j =
            if j >= Array.length t.script then ()
            else if t.script.(j).cls = Delete then begin
              Hashtbl.replace seen (Delete, t.script.(j).shape) ();
              out := t.script.(j) :: !out
            end
            else next (j + 1)
          in
          next (i + 1)
        end
        else if r.cls <> Delete then out := r :: !out
      end)
    t.script;
  List.rev !out

(* The first script index at or after [i], cyclically, where no
   inserted fact is still awaiting its delete: where replay may start on
   a fresh copy of the store. *)
let resume t i =
  let n = Array.length t.script in
  let pending = Array.make (n + 1) 0 in
  Array.iteri
    (fun k r ->
      pending.(k + 1) <-
        (pending.(k) + match r.cls with Insert -> 1 | Delete -> -1 | _ -> 0))
    t.script;
  let rec go j = if pending.(j mod n) = 0 then j mod n else go (j + 1) in
  go (i mod n)

let check r output =
  match r.expect with
  | Replay -> false (* resolved to [Exact] before any request is sent *)
  | Exact want -> String.equal output want
  | First_line want -> String.equal (Util.first_line output) want
