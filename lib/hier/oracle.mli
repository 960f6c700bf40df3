(** The hierarchical channel oracle — a drop-in {!Qnet_core.Routing}
    replacement for large networks.

    A query — a point query {!best_channel} or a Prim step
    {!best_attachment} from a grown set to the users outside it — runs
    in three steps:

    + the {!Skeleton} is routed to pick a corridor — the region
      sequence under the best gateway-level route.  A point query whose
      endpoints share a region skips this: the corridor is that region.
      A Prim step has no such shortcut; its skeleton search carries a
      {e local edge} for the best same-region pair, and when that edge
      wins the corridor is its one region;
    + one {e exact} Dijkstra, restricted to the corridor's vertices but
      otherwise identical to Algorithm 1's (same admission, weights and
      capacity filtering), stitches the concrete channel — for a Prim
      step, one multi-source search from the whole grown set;
    + when that finds nothing (or the skeleton has no route), the flat
      whole-graph search answers.

    Because the final channel always comes from an exact search under
    the flat admission rule, every returned channel is capacity-
    feasible and passes [Verify.check_exn] — the hierarchy can only
    cost rate (when the true optimum leaves the corridor), never
    correctness — and hierarchical routing is feasibility-equivalent to
    flat routing: it returns a channel exactly when the flat search
    would.  Telemetry: [hier.queries] (one per point query or Prim
    step), [hier.local] (queries whose corridor is one region),
    [hier.corridor_hits], [hier.fallbacks]. *)

type t

val create :
  Qnet_graph.Graph.t -> Qnet_core.Params.t -> Partition.t -> t

val graph : t -> Qnet_graph.Graph.t
val params : t -> Qnet_core.Params.t
val partition : t -> Partition.t
val skeleton : t -> Skeleton.t

val best_channel :
  ?exclude:Qnet_core.Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  t ->
  capacity:Qnet_core.Capacity.t ->
  src:int ->
  dst:int ->
  Qnet_core.Channel.t option
(** Hierarchical analogue of {!Qnet_core.Routing.best_channel}: same
    contract (user endpoints, no consumption, exclusion respected,
    budget metered), feasibility-equivalent to the flat search.  With
    [q = 0] the query delegates to the flat direct-fiber special case
    outright. *)

val best_attachment :
  ?exclude:Qnet_core.Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  t ->
  capacity:Qnet_core.Capacity.t ->
  inside:int list ->
  outside:(int -> bool) ->
  Qnet_core.Channel.t option
(** Hierarchical analogue of {!Qnet_core.Routing.best_attachment} — one
    Prim step of Algorithm 4, the best channel from any user of
    [inside] to any user [v] with [outside v].  One
    {!Skeleton.route_sets} search from the whole grown set to every
    outside user picks the corridor: the regions under the winning
    gateway route, or one region when the best pair shares it (the
    local edge).  One exact multi-source search under the corridor
    exclusion then finds the channel, and the flat
    {!Qnet_core.Routing.best_attachment} answers when either finds
    nothing.  So the step returns a channel exactly when the flat step
    does, never of a better rate, and counts one [hier.queries].  A
    group of [k] users costs [k − 1] skeleton and [k − 1] corridor
    searches.  With [q = 0] the step is the flat one outright.
    @raise Invalid_argument if some inside vertex is not a user. *)

val route_users :
  ?exclude:Qnet_core.Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  t ->
  capacity:Qnet_core.Capacity.t ->
  users:int list ->
  Qnet_core.Ent_tree.t option
(** Algorithm 4 over this oracle: grow one entanglement tree spanning
    [users], consuming from [capacity] on success (rolled back on
    failure), every Prim step answered by {!best_attachment}. *)

val invalidate_switch : t -> int -> unit
(** Eagerly drop cached segments of the region holding this switch —
    call on a fault transition instead of waiting for lazy
    revalidation. *)

val invalidate_link : t -> int -> unit
(** Same, for both endpoint regions of a fiber. *)
