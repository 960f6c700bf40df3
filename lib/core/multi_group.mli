(** Concurrent routing of multiple independent entanglement groups.

    The paper's second named extension (§II-D, §VII): several disjoint
    user sets request entanglement simultaneously and must share the
    switches' qubits.  Each group still needs its own entanglement tree
    (Definition 1), and a switch's qubits are consumed by whichever
    groups' channels cross it.

    Two allocation strategies are provided:

    - [Sequential]: solve groups one after another (in the given order),
      each seeing the residual capacity its predecessors left — simple,
      but early groups can starve later ones.
    - [Round_robin]: grow all groups' trees concurrently, one channel
      per group per round (each round attaches the best available
      channel for that group under the shared residual capacity) —
      trades peak rates for fairness. *)

type strategy = Sequential | Round_robin

type group_result = {
  group : int list;  (** The user set, as given. *)
  tree : Ent_tree.t option;  (** [None] when the group could not be
                                 spanned under the shared capacity. *)
  rate : float;  (** Eq. (2); [0.] when unspanned. *)
}

type t = {
  strategy : strategy;
  groups : group_result list;  (** In the order given. *)
  all_feasible : bool;
  aggregate_neg_log : float;
      (** Σ of −ln rates over feasible groups — the joint "all groups
          entangle simultaneously" log-rate restricted to served
          groups. *)
  min_rate : float;  (** Worst served group's rate ([0.] if any group is
                         unserved) — the fairness metric. *)
}

val solve :
  ?strategy:strategy ->
  Qnet_graph.Graph.t ->
  Params.t ->
  groups:int list list ->
  t
(** Route every group's entanglement tree under shared switch
    capacities (default strategy [Sequential]).  Groups must be
    non-empty, pairwise-disjoint sets of user vertices; a group's
    vertices need not be all of the graph's users.
    @raise Invalid_argument on empty/overlapping groups or non-user
    members. *)

type attachment =
  ?exclude:Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  inside:int list ->
  outside:(int -> bool) ->
  Channel.t option
(** One Prim step as a value: the best channel from any user of
    [inside] to any user [v] with [outside v], under the contract of
    {!Routing.best_attachment} (no consumption from [capacity], the
    exclusion respected, [budget] metering the work).  The seam that
    lets the hierarchical router drop in without this module knowing
    about regions: [Qnet_hier.Oracle.best_attachment] answers a step
    with one skeleton search from the whole grown set (a local edge
    covering same-region pairs) and one exact search in the corridor of
    the winning pair, counting one [hier.queries] per step.
    {!Routing.best_attachment} is the identity plug. *)

val prim_for_users :
  ?exclude:Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  ?oracle:attachment ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  users:int list ->
  Ent_tree.t option
(** Algorithm 4 generalised to an arbitrary user subset and an external
    residual-capacity state (consumed on success, partially consumed on
    failure paths are rolled back).  [exclude] (default
    {!Routing.no_exclusion}) keeps the grown tree clear of failed
    switches and fibers.  [budget] meters the underlying Dijkstra runs;
    on {!Qnet_overload.Budget.Exhausted} any channels already consumed
    from [capacity] are released before the exception propagates, so a
    fuel-starved call leaves shared capacity exactly as it found it.
    Each grow round is one call of [oracle] (default
    {!Routing.best_attachment}, one multi-source search), so a group of
    [k] users costs [k − 1] steps.  A round whose best channel has an
    impossible rate fails like one that finds none.  Exposed for reuse
    and testing. *)
