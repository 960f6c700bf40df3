(** Shortest paths, traversal and connectivity over {!Graph.t}.

    The Dijkstra variant here is deliberately parameterised on both the
    edge weight and a per-vertex admission predicate, because the
    paper's Algorithm 1 needs (a) the −log-space additive weight
    [α·L − ln q] and (b) "skip any switch with fewer than 2 free
    qubits / any foreign user" filtering baked into relaxation. *)

type dijkstra_result = {
  dist : float array;  (** [dist.(v)] is the shortest distance from the
                           source, or [infinity] if unreachable. *)
  prev : int array;  (** Predecessor vertex on a shortest path, [-1] at
                         the source and for unreachable vertices. *)
}

val dijkstra :
  Graph.t ->
  source:int ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?target:int ->
  ?budget:Qnet_overload.Budget.t ->
  unit ->
  dijkstra_result
(** [dijkstra g ~source ~weight ()] runs single-source shortest paths.
    [admit v] (default: always [true]) controls whether a non-source
    vertex may be {e entered} during relaxation; inadmissible vertices
    keep [dist = infinity].  [expand v] (default: always [true])
    controls whether a settled non-source vertex relaxes its own
    neighbours — with [expand] false a vertex can terminate paths but
    not relay them, which is how quantum users are kept out of channel
    interiors.  The source is always expanded.  [edge_ok eid] (default:
    always [true]) filters individual edges out of relaxation — the
    hook fault-aware routing uses to exclude failed fibers without
    rebuilding the graph.

    With [?target] the run stops as soon as [target] is settled
    (popped from the heap), turning an s-t query from settle-the-graph
    into settle-until-target.  [dist.(target)], [prev.(target)] and
    every vertex settled earlier are exactly as in the full run —
    {!extract_path} to [target] is unaffected — but vertices that were
    still on the frontier keep tentative (over-)estimates.  Omit
    [target] when the result is reused for several destinations.

    With [?budget] every heap pop charges one unit of fuel;
    {!Qnet_overload.Budget.Exhausted} aborts the run the moment the
    budget empties (the per-domain scratch heap is still returned).
    Fuel counts expansions, not time, so budgeted runs stay
    deterministic at every [--jobs] level.
    @raise Invalid_argument if any relaxed edge has negative weight.
    @raise Qnet_overload.Budget.Exhausted when the fuel runs out. *)

val nearest :
  Graph.t ->
  sources:int list ->
  stop:(int -> bool) ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?budget:Qnet_overload.Budget.t ->
  unit ->
  int list option
(** [nearest g ~sources ~stop ~weight ()] runs one Dijkstra seeded with
    every vertex of [sources] at distance 0 and stops at the first
    settled vertex [v] with [stop v].  It returns the vertex path from
    the nearest source to [v] — the shortest such path over all
    sources — or [None] when no reachable vertex satisfies [stop].  A
    source that satisfies [stop] is returned as the one-vertex path.

    [admit], [expand], [edge_ok] and [budget] mean exactly what they
    mean for {!dijkstra}, with "the source" read as "any source":
    sources are always entered and always expanded.  With one source
    and [stop] the target test, the search pops, relaxes and returns
    exactly what [dijkstra ~target] followed by {!extract_path} would.
    Unlike {!dijkstra} it allocates no O(n) arrays: it runs on the
    domain's reusable generation-stamped workspace, so an s-t query
    costs what it settles, not the size of the graph.
    @raise Invalid_argument on a bad source or a negative relaxed
    edge weight.
    @raise Qnet_overload.Budget.Exhausted when the fuel runs out; the
    work done so far is still counted and the workspace returned. *)

type settled
(** Read access to the workspace of a finished {!settle} search.  Valid
    only inside that search's [read] callback: the workspace is reused
    by the next search. *)

val settle :
  Graph.t ->
  sources:int list ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?budget:Qnet_overload.Budget.t ->
  read:(settled -> 'a) ->
  unit ->
  'a
(** [settle g ~sources ~weight ~read ()] runs {!nearest} without a stop
    rule — it settles everything reachable — and returns [read]
    applied to the result, so one search answers distance and path
    queries to many targets ({!settled_dist}, {!settled_path}).  It
    pushes, pops and relaxes exactly what {!nearest} with a never-true
    [stop] would, on the same per-domain workspace, so a
    region-restricted search (an [admit] that rejects other regions)
    costs what it settles, not the size of the graph.  It is not added
    to the [graph.dijkstra.*] counters, which count the searches that
    produce channels; callers count their own runs.
    @raise Invalid_argument on a bad source or a negative relaxed edge
    weight.
    @raise Qnet_overload.Budget.Exhausted when the fuel runs out. *)

val settled_dist : settled -> int -> float
(** Shortest distance from the nearest source, [infinity] when
    unreached. *)

val settled_path : settled -> int -> (int list * int list) option
(** The vertex path from the nearest source to the vertex, both ends
    included, with the ids of the edges along it (one fewer); [None]
    when unreached. *)

val extract_path : dijkstra_result -> source:int -> target:int -> int list option
(** The vertex sequence [source; …; target] along the recorded
    predecessors, or [None] if [target] was unreachable. *)

val shortest_path :
  Graph.t ->
  source:int ->
  target:int ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?budget:Qnet_overload.Budget.t ->
  unit ->
  (int list * float) option
(** One-shot wrapper returning the path and its total weight. *)

val bfs_order : Graph.t -> source:int -> int list
(** Vertices reachable from [source] in breadth-first order. *)

val bfs_hops : Graph.t -> source:int -> int array
(** Hop counts from [source]; [-1] for unreachable vertices. *)

val connected_components : Graph.t -> int list list
(** All components, each sorted ascending; components ordered by their
    smallest member. *)

val is_connected : Graph.t -> bool
(** Whether the whole graph is one component ([true] for empty and
    singleton graphs). *)

val users_connected : Graph.t -> bool
(** Whether all user vertices lie in one component — the obvious
    necessary condition for any MUERP instance to be feasible. *)

val path_is_valid : Graph.t -> int list -> bool
(** [path_is_valid g p] checks that consecutive vertices of [p] are
    joined by edges and that [p] repeats no vertex. *)

val path_length : Graph.t -> int list -> float
(** Total fiber length along a vertex path.
    @raise Invalid_argument if some consecutive pair has no edge. *)

val path_edges : Graph.t -> int list -> int list
(** Edge ids along a vertex path.  @raise Invalid_argument as above. *)
