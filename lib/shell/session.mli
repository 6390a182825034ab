(** The interactive session: a pure command interpreter.

    Drives the whole library from one-line commands, holding the loaded
    instance and the selected repair family as state. The interpreter is
    pure — [exec] maps a state and a command line to a new state and the
    text to display — so the test suite exercises it without a terminal;
    [bin/prefdb shell] wires it to stdin.

    Commands:
    {v
    load FILE            load an instance file
    family rep|l|s|g|c   select the preferred-repair family
    info                 schema, constraints, conflicts
    repairs [N]          enumerate (at most N) preferred repairs
    count                count preferred repairs without enumerating
    stats                inconsistency summary
    facts                certain / disputed / excluded tuples
    clean                run Algorithm 1
    trace                run Algorithm 1 step by step
    query Q              preferred consistent answer to a closed query,
                         certain bindings of an open one (answered
                         through the component decomposition)
    qtrace Q             answer plus the decomposition's work report:
                         per-component repair counts, cache traffic,
                         combinations streamed, early exits
    explain Q            answer with witness repairs, prefixed with the
                         physical plan the per-repair checks execute
    plan Q               the cost-based physical plan for Q over the
                         current instance: chosen join order, access
                         paths (index/range/merge scans), estimated
                         vs. actual cardinalities — or the fallback
                         reason when Q is outside the compilable
                         fragment
    status VALUES        a tuple's conflicts and fate
    insert VALUES        add a tuple through the incremental engine:
                         only the components the insertion touches are
                         recomputed, cached repair lists of untouched
                         components stay live
    delete VALUES        remove a tuple, incrementally likewise
    undo                 revert the most recent insert/delete batch
    aggregate SPEC       count | sum:A | min:A | max:A
    prefer DECL          add a preference (file-format syntax; rebuilds
                         the incremental engine — a global preference
                         change invalidates every component)
    save FILE            write the instance and preferences back out
    metrics              process metrics in Prometheus text format
    help                 this text
    v} *)

type state

val initial : state

val of_spec : ?engine:Core.Delta.t -> Dbio.Instance_format.spec -> state
(** A session holding an already-loaded spec — the serve loop's entry
    point, where the durable store (not a [load] command) owns the
    instance. [engine] supplies a warm incremental engine (e.g. the one
    {!Dbio.Store.open_} recovered); without it one is built from the
    spec. *)

val family : state -> Core.Family.name

val loaded : state -> Dbio.Instance_format.spec option

(** {2 Mutation observation}

    The durability gate: the serve loop appends one write-ahead-log
    record per mutation through the observer, and a mutation commits to
    the session only if the observer succeeds. [insert]/[delete] apply
    to the engine first and are {e rolled back} when journaling fails;
    [undo] and [prefer] journal {e before} touching the session (an
    undo's replayability is the journal's call — the store refuses one
    that would revert past the last snapshot — and a validated
    preference always re-applies). Either way, a failed observer leaves
    the served state exactly where the journal can reproduce it, and
    the command reports a [not journaled] error. *)

type event =
  | Updated of Core.Delta.op list
      (** one [insert]/[delete] batch, in engine order *)
  | Undone  (** one [undo] *)
  | Preferred of Dbio.Instance_format.pref  (** one [prefer] *)

val set_observer : state -> (event -> (unit, string) result) -> state

val drop_undo_history : state -> unit
(** Empty the engine's undo history in place (no-op without an engine).
    The serve loop calls this after a successful store checkpoint so
    the live session agrees with a recovered one that the snapshot is
    the undo horizon ({!Dbio.Store.log} would reject the older undos
    anyway; this makes [undo] report "nothing to undo" up front). *)

val parse_query :
  Dbio.Instance_format.spec -> string -> (Query.Ast.t, string) result
(** Parse a query and bind it against the spec's relation: a syntax
    error, an unknown relation or an atom of the wrong arity is an
    [Error] — every query surface (shell, serve, one-shot CLI) goes
    through this before evaluating, so no such query reaches an
    evaluator that would raise on it. *)

val plan_json : state -> string -> (Obs.Json.t, string) result
(** The [plan] command's report as JSON (mode, operator tree with
    estimates and actuals, result) for the serve protocol's structured
    framing. [Error] on parse failure or when no instance is loaded. *)

val explain_report : state -> string -> (string * Obs.Json.t, string) result
(** One planner run rendered both ways: the [plan] command's text and
    its JSON form, from the same execution — the slow-query log embeds
    both without running the plan twice. *)

val exec : state -> string -> state * string
(** Execute one command line. Unknown commands and errors produce an
    explanatory message and leave the state unchanged. The [quit]/[exit]
    commands are the driver's business, not the interpreter's. *)

val is_error_output : string -> bool
(** Whether [exec]'s output reports an error (parse failure, unknown
    command, missing instance, rejected update). Non-interactive drivers
    use this to exit non-zero when a scripted command fails. *)
