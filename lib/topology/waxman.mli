(** Waxman random-network generator (Waxman, JSAC 1988) — the paper's
    default topology.

    Classic Waxman accepts each candidate edge [(u, v)] independently
    with probability [β · exp (−d(u,v) / (α_w · L))] where [L] is the
    area diameter.  The paper instead fixes the {e total edge count}
    from a target average degree, so this implementation performs
    weighted sampling without replacement over all vertex pairs with
    weight [exp (−d / (α_w · L))] (the [β] density knob is subsumed by
    the fixed edge budget) using the Efraimidis–Spirakis one-pass
    scheme.  The resulting graph has exactly the budgeted edge count
    (before connectivity repair) with the Waxman distance bias. *)

type params = { alpha_w : float  (** Distance-decay shape; default 0.15. *) }

val default_params : params

val generate :
  ?params:params -> Qnet_util.Prng.t -> Spec.t -> Qnet_graph.Graph.t
(** Generate a connected Waxman network for [spec] with the edge count
    fixed by [Spec.target_edges]. *)

val generate_classic :
  ?params:params ->
  beta:float ->
  Qnet_util.Prng.t ->
  Spec.t ->
  Qnet_graph.Graph.t
(** The original accept/reject form: each pair becomes a fiber
    independently with probability [beta · exp (−d / (α_w · L))], so
    the edge count is random (the spec's [avg_degree] is ignored).
    Provided for fidelity to Waxman's 1988 model; the paper's
    fixed-degree evaluation uses {!generate}.
    @raise Invalid_argument when [beta] is outside (0, 1]. *)

val top_pairs : m:int -> float array -> int array
(** The selection step of {!generate}, exposed for testing: the indices
    of the [m] largest keys (all of them when fewer), largest first,
    and on equal keys the higher index first — the order a stable
    descending sort lists them in when the keys were consed onto a
    list one by one.  Keeps only the best [m] in a bounded heap, so
    memory is O(m) in the number of keys offered. *)
