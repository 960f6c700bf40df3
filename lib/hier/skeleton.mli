(** The contracted gateway graph and its cached region segments.

    The skeleton has one node per gateway (border switch) plus, per
    query, two virtual endpoints: a source standing for a set of users
    and a target standing for another.  Its edges are:

    - {e inter-region} fibers — the physical switch-to-switch edges
      crossing a region border, at their exact −log-rate weight;
    - {e intra-region} segments — for each region, every gateway pair,
      weighted by the best capacity-feasible switch path between them
      {e inside} that region (a target-pruned Dijkstra restricted to
      the region's vertices).

    Segment costs are computed lazily — one region-restricted SSSP per
    gateway yields that gateway's segments to all siblings at once —
    and cached with their witness paths and edge ids.  Lookups reuse
    cached segments {e optimistically}: the skeleton search trusts the
    cached costs, and only the segments on the {e winning} route are
    validated against the live exclusion and capacity (can every
    witness switch still relay?).  Stale winners trigger a recompute
    of just those source gateways and a bounded retry.  Staleness can
    therefore only cost a retry or a slightly worse corridor — never a
    wrong channel, because the corridor search below is exact.  Fault
    transitions also invalidate eagerly via {!invalidate_region}
    (wired from [Qnet_faults.Health.on_transition] by
    {!Serve.attach_health}).

    The skeleton search itself is A-star: the heuristic is euclidean
    distance to the nearest target user times a per-km −log-rate lower
    bound
    (attenuation [alpha] plus one swap spread over the longest fiber),
    admissible because fiber length equals euclidean distance.  Goal
    direction keeps the lazy cache fill confined to corridor-adjacent
    gateways instead of settling the whole skeleton.

    Routing the skeleton answers one question cheaply: {e which regions
    should the exact search look at?}  The result is a corridor — the
    region sequence under the best gateway-level route — and the caller
    ({!Oracle}) re-runs the exact flat Dijkstra restricted to corridor
    vertices to produce the concrete channel.  The exact searches
    (endpoint attachment and segments) run on the shared
    {!Qnet_graph.Paths.settle} workspace and are not counted in
    [graph.dijkstra.*].  Telemetry:
    [hier.segment_sssp], [hier.segment_hits], [hier.segment_stale],
    [hier.skeleton_routes]. *)

type t

val create :
  Qnet_graph.Graph.t -> Qnet_core.Params.t -> Partition.t -> t
(** Index the gateways and the inter-region fibers; no segment is
    computed yet (O(V + E) setup). *)

val partition : t -> Partition.t
val graph : t -> Qnet_graph.Graph.t

val node_count : t -> int
(** Gateways in the skeleton. *)

val inter_edge_count : t -> int
(** Cross-region switch-to-switch fibers. *)

val route_sets :
  t ->
  exclude:Qnet_core.Routing.exclusion ->
  budget:Qnet_overload.Budget.t option ->
  capacity:Qnet_core.Capacity.t ->
  inside:int list ->
  outside:int list ->
  int list option
(** [route_sets t ~inside ~outside] routes the skeleton from the set of
    user vertices [inside] to the set [outside] — one Prim step of
    Algorithm 4 — and returns the corridor for the exact search.

    A virtual source reaches the gateways through one region-restricted
    exact search per inside user, keeping the least distance per
    gateway; a virtual target is reached the same way from every
    outside user.  The {e local edge} joins the two virtual nodes
    directly, weighted by the best same-region inside-to-outside
    distance (read from the inside users' own searches).  One A-star
    search follows, its heuristic [h_rate] times the straight-line
    distance to the nearest outside user.

    The corridor is the distinct region labels under the winning
    gateway route, in path order (the first holds the attaching inside
    user, the last the reached outside user), or the local edge's one
    region when that wins.  [None] when neither offers a
    capacity-feasible route.  With one user on each side in different
    regions this is the point query {!Oracle.best_channel} makes; it
    pushes the same heap entries in the same order as the two-endpoint
    search it replaced.  [budget] meters the underlying exact
    searches.  [outside] must not meet [inside]. *)

val export : t -> Qnet_util.Sexp.t
(** Serialise the segment cache exactly — every cached entry (costs,
    witness paths, edge ids, stamp) plus the query counter, entries
    sorted by gateway node so the rendering is deterministic.  A
    restored run must resume with the same cache contents, not a cold
    cache: segments are reused optimistically, so warmth can change
    which corridor wins. *)

val import : t -> Qnet_util.Sexp.t -> (unit, string) result
(** Replace the segment cache and query counter with an {!export}ed
    document.  Validates gateway ids and per-region row widths against
    this skeleton; [Error] (cache untouched on the malformed-document
    paths, reset on a later entry error is impossible — entries are
    parsed fully before the cache is swapped) when the document does
    not fit this network. *)

val invalidate_region : t -> int -> unit
(** Drop every cached segment of the given region (eager invalidation
    on a fault transition). *)

val invalidate_all : t -> unit
(** Drop the whole segment cache. *)
