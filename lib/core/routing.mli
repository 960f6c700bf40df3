(** Algorithm 1 — the maximum-entanglement-rate channel between users.

    Eq. (1) is a product, so it is maximised by a shortest path in the
    negative-log transform (§IV-A): each fiber edge gets the additive
    weight [alpha · L + (−ln q)], one [−ln q] is refunded at the end
    (a channel of [l] links crosses only [l − 1] switches), and Dijkstra
    does the rest.  Relaxation only enters switches holding at least 2
    free qubits, and never relays through user vertices, which
    implements the capacity filtering of Algorithm 1's line 11 and
    Definition 2's "path through vertices in R". *)

val edge_weight : Params.t -> Qnet_graph.Graph.edge -> float
(** The −log-space edge weight [alpha · L_e − ln q].  [infinity] when
    [q = 0.]. *)

(** {2 Fault exclusion}

    Routing normally sees the full graph; under infrastructure failure
    (see [Qnet_faults]) callers pass an {!exclusion} so relaxation never
    enters a failed switch nor crosses a failed fiber.  The hooks are
    plain predicates, so this module stays independent of any particular
    fault model. *)

type exclusion = {
  vertex_ok : int -> bool;  (** May the path enter this vertex? *)
  edge_ok : int -> bool;  (** May the path cross this edge (by id)? *)
}

val no_exclusion : exclusion
(** Permits everything — the default for every [?exclude] below. *)

val path_ok : Qnet_graph.Graph.t -> exclusion -> int list -> bool
(** Whether a vertex path survives the exclusion: every vertex passes
    [vertex_ok] and every consecutive pair is joined by an edge passing
    [edge_ok].  [false] when some pair has no edge at all. *)

val best_channel :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  src:int ->
  dst:int ->
  Channel.t option
(** Maximum-rate channel between users [src] and [dst] given residual
    switch capacities, or [None] when no capacity-feasible channel
    exists.  [?budget] charges underlying Dijkstra heap pops (see
    {!Qnet_graph.Paths.dijkstra}) and propagates
    {!Qnet_overload.Budget.Exhausted}.
    @raise Invalid_argument if either endpoint is not a user or
    [src = dst]. *)

val best_attachment :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  inside:int list ->
  outside:(int -> bool) ->
  Channel.t option
(** The maximum-rate capacity-feasible channel from any user of
    [inside] to any user [v] with [outside v] — one Prim step of
    Algorithm 4 — or [None] when no such channel exists.  One Dijkstra
    seeded with every inside user, stopped when the first outside user
    settles: the same channel as taking the best of
    {!best_channels_from} over every inside user, for the price of one
    partial search instead of [|inside|] whole-graph ones (on exact
    rate ties the two may pick different, equally good channels).
    [outside] must be [false] on inside users.  With [q = 0] only
    direct fibers count, as in {!best_channels_from}.  [?budget]
    charges heap pops and propagates
    {!Qnet_overload.Budget.Exhausted}.
    @raise Invalid_argument if some inside vertex is not a user. *)

val best_channels_from :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  src:int ->
  (int * Channel.t) list
(** One Dijkstra run from [src] yielding the best channel to {e every}
    other reachable user, as [(user, channel)] pairs in ascending user
    order — the paper's optimisation that drops the all-pairs phase of
    Algorithm 2 from [|U|²] to [|U|] Dijkstra runs. *)

val all_pairs_best :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  users:int list ->
  Channel.t list
(** Best channels for all unordered user pairs (omitting unreachable
    pairs), deduplicated, in no particular order. *)
