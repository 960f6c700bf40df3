(** Deterministic discrete-event queue for the online traffic engine.

    A binary min-heap over event timestamps.  Unlike
    {!Qnet_graph.Binary_heap} (whose equal-key pop order is
    unspecified), ties are broken by insertion order — two events
    scheduled for the same instant fire in the order they were pushed.
    That FIFO guarantee is what makes an engine run a pure function of
    its inputs, which the reproducibility contract of [muerp traffic]
    (same seed ⇒ same SLA summary) depends on.

    Events known before the run starts (arrivals, a fault schedule, a
    reconfiguration list) need not be pushed: a queue can be created
    over read-only {!source}s, which it merges with the heap.  Source
    [i]'s item at index [k] carries seq [b_i + k], where [b_i] is the
    total length of the sources before it, and the first {!push} gets
    the seq after every source item — exactly the seqs pushing all
    sources' items up front, in order, would have assigned.  So the
    merged queue pops, peeks and drains the same [(time, seq, payload)]
    sequence as that push-everything queue, while the heap (and a
    checkpoint of it) holds only events pushed during the run. *)

type 'a source
(** A read-only sequence of pre-scheduled events. *)

val source : time:('b -> float) -> wrap:('b -> 'a) -> 'b array -> 'a source
(** [source ~time ~wrap items] schedules [wrap items.(k)] at
    [time items.(k)] for every [k]; among equal times the lower index
    fires first.  The array is indexed, not copied (do not mutate it);
    when the items are not already in time order a permutation of
    their indices is built once.  @raise Invalid_argument on a NaN
    time. *)

type 'a t

val create : ?capacity:int -> ?sources:'a source array -> unit -> 'a t
(** Fresh queue holding the [sources]' items (none by default) and an
    empty heap.  [capacity] pre-sizes the heap's backing array. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q time ev] schedules [ev] at [time].  @raise Invalid_argument
    on a NaN timestamp. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event (FIFO among equal timestamps), removed; [None] when
    empty. *)

val peek_time : 'a t -> float option
(** Timestamp of the next event without removing it. *)

val peek_key : 'a t -> (float * int) option
(** [(time, seq)] of the next event without removing it.  [seq] is the
    queue's insertion counter — the FIFO tiebreaker — exposed so a
    batched consumer can merge a drained batch with events pushed while
    committing it, in the exact order a pop loop would have used. *)

val drain_until : 'a t -> upto:float -> (float * int * 'a) list
(** Pop every event with [time <= upto], returned in (time, seq) order —
    exactly the sequence repeated {!pop}s would have produced, with each
    event's [seq] included.  The slot-windowed batch of the serving
    engine.  @raise Invalid_argument on a NaN bound. *)

val pop_batch : 'a t -> (float * int * 'a) list
(** All events sharing the earliest timestamp, FIFO among them (empty
    list when the queue is empty): [drain_until] with the head
    timestamp as the bound. *)

val clear : 'a t -> unit
(** Drop every pending event, pushed or scheduled. *)

val entries : 'a t -> (float * int * 'a) list
(** Every pending {e pushed} entry as [(time, seq, payload)] in
    (time, seq) pop order, without disturbing the queue — the canonical
    dump a checkpoint serialises.  Scheduled items are not listed:
    {!cursor} says how far each source has been consumed. *)

val next_seq : 'a t -> int
(** The insertion counter the next {!push} will consume.  Serialised
    alongside {!entries} so a restored queue hands out the same seqs. *)

val cursor : 'a t -> int array
(** Per source, in creation order, how many of its items have been
    popped (a copy). *)

val load :
  'a t -> next_seq:int -> ?cursor:int array -> (float * int * 'a) list -> unit
(** Replace the queue's contents with a dump, in place: the sources
    resume at [cursor] (default [[||]], for a queue without sources),
    the heap holds exactly the dumped entries, and the insertion
    counter resumes at [next_seq] — so the queue pops the same
    [(time, seq)] sequence, and pushes after restore tie-break
    identically, as in the uninterrupted run.  @raise Invalid_argument
    on NaN timestamps, a [cursor] whose length differs from the number
    of sources or with a position outside [\[0, length\]], a
    [next_seq] below the first pushed seq, or an entry seq that is a
    source's or ≥ [next_seq]. *)

val of_entries : next_seq:int -> (float * int * 'a) list -> 'a t
(** Fresh queue without sources holding a dump: {!create} followed by
    {!load}. *)
