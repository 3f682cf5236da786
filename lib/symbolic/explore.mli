(** Exhaustive bounded state exploration — one engine for every
    bounded model.

    {!Make} is a breadth-first search over any {!MODEL}, from its
    initial state over its successor relation, deduplicating states by
    their canonical serialization. Within the bounds of the
    configuration the exploration is exhaustive: every reachable state
    and every transition is visited, so checking an invariant over the
    states and an edge obligation over the edges discharges the
    corresponding proof obligation for the bounded instance. This
    module's own API is [Make (Model)], the §4 model; {!Recovery},
    {!Delivery_model}, {!Sentinel_model} and {!Legacy_model} are
    instances too.

    Canonical keys are interned while the search runs: each state gets
    a dense integer id in discovery order, and states live in an array
    indexed by id. The deduplicated edges are three flat columns
    ([src], [moves], [dst]) in discovery order, which groups them by
    source, and the BFS tree is one array of edge numbers. The
    canon-to-id table is dropped when the search ends: the result holds
    no canonical key.

    {2 Parallelism and determinism}

    With [~jobs:n] (n > 1) the successor computation of each BFS level
    is fanned out over [n] domains with a merge barrier per depth;
    without a pool each source is expanded when the search reaches it.
    The merge that assigns ids and records edges is sequential and runs
    in frontier order, so the result — state order, edge order, every
    count — is identical for every [jobs] value.

    {2 Truncation}

    When the [max_states] cap stops the search, edges leading to
    destinations that were not stored are {e not} recorded; they are
    counted in [frontier_dropped] instead, so [edge_count] always
    equals the number of edges [iter_edges] visits. [truncated] is
    [frontier_dropped > 0]. *)

type report = {
  name : string;
  holds : bool;
  checked : int;  (** States or edges examined. *)
  violations : string list;  (** Pretty-printed counterexamples (capped). *)
}
(** The verdict of one proof obligation over an explored graph;
    [holds = true] means it was verified in {e every} reachable state
    (or over every transition, for per-edge obligations) of the
    bounded instance. *)

(** A bounded model: a finite transition system given by its initial
    state and successor relation. [canon] must map two states to the
    same string iff they are the same state. *)
module type MODEL = sig
  type config
  type state
  type move
  val default_config : config
  val initial : state
  val successors : config -> state -> (move * state) list
  val canon : state -> string
end

module Make (M : MODEL) : sig
  type result = {
    states : M.state array;  (** id -> state, in discovery order *)
    src : int array;
        (** edge -> source id. The deduplicated edges are numbered in
            discovery order, so [src] never decreases. *)
    moves : M.move array;  (** edge -> move *)
    dst : int array;
        (** edge -> destination id; like [src], always a stored
            state *)
    parent : int array;
        (** BFS tree: id -> the edge that discovered the state, whose
            [src] is smaller than the id; [-1] for the initial state *)
    truncated : bool;  (** true iff [max_states] stopped the search *)
    frontier_dropped : int;
        (** successor occurrences not stored (and not recorded as
            edges) because the cap was reached; 0 on exhaustive runs *)
  }

  val run :
    ?config:M.config -> ?max_states:int -> ?jobs:int -> unit -> result
  (** [run ()] explores with [M.default_config] and a 200k-state
      safety limit. [~jobs] (default 1) parallelizes successor
      computation without changing any result. *)

  val state_count : result -> int
  val edge_count : result -> int
  val iter_states : result -> (M.state -> unit) -> unit

  val iter_edges :
    result -> (M.state -> M.move -> M.state -> unit) -> unit

  val find_state : result -> (M.state -> bool) -> M.state option
  (** First match in discovery (BFS) order — deterministic. *)

  val find_edge :
    result ->
    (M.state -> M.move -> M.state -> bool) ->
    (M.state * M.move * M.state) option
  (** First matching edge in discovery order. *)

  val path_to : result -> M.state -> (M.move * M.state) list
  (** [path_to r q] reconstructs a shortest path (BFS tree) from the
      initial state to [q], as the list of (move, reached state) steps —
      a concrete counterexample trace when [q] violates a property; [[]]
      for the initial state or a state not in [r]. The result keeps no
      key table, so [q] is first looked for by physical identity, which
      finds any state [find_state], [find_edge] or [iter_states] handed
      out. Only a copy costs one [canon] per stored state. *)

  val state_report :
    result ->
    step:(M.move -> M.state -> string) ->
    name:string ->
    (M.state -> bool) ->
    report
  (** Check a predicate in every state. Each of the first three
      violations is rendered as its path from the initial state, one
      [step] per transition, joined by [" ; "]. *)

  val edge_report :
    result ->
    step:(M.move -> M.state -> string) ->
    name:string ->
    (M.state -> M.move -> M.state -> bool) ->
    report
  (** Check a predicate on every edge; counterexamples as in
      [state_report], each ending with the violating edge. *)
end

include module type of Make (Model)

val pp_path :
  Format.formatter -> (Model.move * Model.state) list -> unit

(** The seed engine (string-keyed hashtable, cons-list edge store,
    [List.length] counting), kept for differential benchmarking and as
    an independent oracle in the tests. Note its truncation bug is
    preserved: on truncated runs it records edges to unstored states. *)
module Baseline : sig
  type t

  val run : ?config:Model.config -> ?max_states:int -> unit -> t
  val state_count : t -> int
  val edge_count : t -> int
end
