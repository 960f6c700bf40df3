(** Algorithm 4 — the Prim-based heuristic (§IV-D).

    Unlike Algorithm 3, this needs no seed solution: starting from one
    user, it grows the entangled set one user per round, each time
    attaching the maximum-rate capacity-feasible channel from any
    already-entangled user to any outside user, and deducting the
    channel's qubits.  After [|U| − 1] successful rounds every user is
    entangled; if some round finds no feasible channel the instance is
    declared infeasible ([None]). *)

val solve :
  ?start:int ->
  ?rng:Qnet_util.Prng.t ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  Ent_tree.t option
(** [solve g params] grows the tree from a start user: [start] if given
    (must be a user id), else a user drawn from [rng] (the paper picks
    uniformly at random), else the smallest user id.  The produced tree
    always respects switch capacities.  [budget] meters the underlying
    Dijkstra runs (local capacity only — exhaustion leaks nothing).
    This is {!Multi_group.prim_for_users} over every user, started at
    the chosen one, on a fresh capacity state. *)
