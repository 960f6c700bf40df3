(** Array-backed binary min-heap keyed by floats.

    Backs the Dijkstra variant in {!Qnet_graph.Paths} and the channel
    selection queues in the routing algorithms.  Duplicate insertions of
    an element with improved priority are handled by the caller via lazy
    deletion (checking a [visited]/[dist] array on pop), which is simpler
    and in practice as fast as decrease-key for sparse graphs.

    Storage is two parallel flat arrays (an unboxed float array of keys
    and a value array) that grow in place by doubling: a push allocates
    nothing, so tight loops like repeated SSSP runs produce no
    per-entry garbage.  {!reset} empties the heap while keeping the
    storage for reuse. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap.  [capacity] pre-sizes the backing array. *)

val length : 'a t -> int
(** Number of stored entries (including stale duplicates the caller has
    not yet popped). *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val pop_min : 'a t -> (float * 'a) option
(** [pop_min h] removes and returns the minimum-key entry, or [None] if
    empty.  Ties are broken arbitrarily.  Allocates the returned
    option and pair; hot loops use {!min_key}, {!min_value} and
    {!drop_min} instead, which together pop the same entry without
    allocating. *)

val min_key : 'a t -> float
(** Key of the minimum entry, without removal or allocation.
    @raise Invalid_argument if the heap is empty. *)

val min_value : 'a t -> 'a
(** Value of the minimum entry (the one {!min_key} reports).
    @raise Invalid_argument if the heap is empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry — the one {!min_key} and {!min_value}
    report.  [pop_min] is exactly these three.
    @raise Invalid_argument if the heap is empty. *)

val peek_min : 'a t -> (float * 'a) option
(** Minimum-key entry without removal. *)

val clear : 'a t -> unit
(** Remove all entries, retaining the backing storage. *)

val reset : 'a t -> unit
(** Synonym of {!clear}, named for the reuse idiom: reset and refill
    the same heap across repeated runs (e.g. one SSSP per request)
    instead of allocating a fresh one. *)
