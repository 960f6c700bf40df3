(** Incremental checkpoint payloads: typed diffs between consecutive
    engine snapshots.

    A full {!Qnet_online.Engine.snapshot} of a busy run is dominated by
    sections that barely move between 10-second cuts: the settled
    outcomes only grow, a few requests arrive or settle, and the
    metrics registry changes a handful of entries.  {!diff} captures
    exactly the movement — removals and upserts keyed by each section's
    natural identity, the fresh outcome prefix, whole-value refreshes
    for order-sensitive small sections — and {!apply} reconstructs the
    next snapshot from the base, restoring each section's canonical
    sort so the result is {e structurally equal} to the original
    (identical float bits included).

    The sexp codec renders the metrics-registry diff through the
    compact binary {!Qnet_telemetry.Wire} codec (hex-armoured to stay
    inside the line-oriented chain-file format); everything else reuses
    the engine's own element serialisers, so a delta never invents a
    second encoding for the same data.

    {!apply} validates as it goes — a removal the base does not have, a
    metrics diff against an absent registry, a malformed payload — and
    returns [Error] with the reason; the chain walk ({!Chain}) treats
    that exactly like a failed checksum and skips the poisoned
    suffix. *)

type 'a refresh = Unchanged | Set of 'a
(** A section carried wholesale when it changed at all (used where
    order or small size makes keyed diffing pointless). *)

type metrics_delta =
  | M_unchanged
  | M_set of (string * Qnet_telemetry.Metrics.dumped) list option
      (** Presence flipped (registry appeared/disappeared): carried
          whole. *)
  | M_diff of string list * (string * Qnet_telemetry.Metrics.dumped) list
      (** Removed names and upserted entries, both sorted by name —
          shipped as the binary wire codec. *)

type t = {
  d_at : float;
  d_next_ckpt : float;
  d_next_seq : int;
  d_next_lease : int;
  d_arrivals : Qnet_online.Engine.s_cursor;
  d_faults : Qnet_online.Engine.s_cursor;
  d_reconfig : Qnet_online.Engine.s_cursor;
      (** The three schedule cursors, raw. *)
  d_scalars : float array;
      (** Every scalar counter of the snapshot, raw, in a fixed order —
          cheaper to carry than to diff. *)
  d_events_removed : (float * int) list;  (** (time, seq) keys. *)
  d_events_added : (float * int * Qnet_online.Engine.s_event) list;
  d_states_removed : int list;  (** Requests settled since the base. *)
  d_states : Qnet_online.Engine.s_state list;  (** Upserts by [ss_id]. *)
  d_queue : int list refresh;
  d_active_removed : int list;  (** Lease ids. *)
  d_active : Qnet_online.Engine.s_active list;  (** Upserts by [sa_lid]. *)
  d_outcomes_new : (int * Qnet_online.Engine.s_resolution) list;
      (** Outcomes accrue newest-first; this is the new prefix. *)
  d_quota_removed : int list;
  d_quota : (int * int) list;
  d_residual_removed : int list;
  d_residual : (int * int) list;
  d_limiter : (float * float) option refresh;
  d_health : Qnet_faults.Health.snapshot option refresh;
  d_tier : Qnet_online.Engine.s_tier option refresh;
  d_policy : Qnet_util.Sexp.t option refresh;
  d_metrics : metrics_delta;
}

val version : string
(** The delta-document tag, [muerp-snapshot-delta/2]. *)

val diff :
  base:Qnet_online.Engine.snapshot -> Qnet_online.Engine.snapshot -> t
(** [diff ~base next] is the delta reconstructing [next] from [base].
    @raise Invalid_argument if the snapshots violate the engine's
    accrual invariants (settled outcomes shrank or changed in place) —
    a programming error, not a file-corruption case. *)

val apply :
  base:Qnet_online.Engine.snapshot ->
  t ->
  (Qnet_online.Engine.snapshot, string) result
(** Reconstruct the next snapshot.  [apply ~base (diff ~base next)] is
    structurally equal to [next].  [Error] when the delta does not
    belong to this base (phantom removals, metrics diff against an
    absent registry) or carries a corrupt payload. *)

val to_sexp : t -> Qnet_util.Sexp.t

val of_sexp : Qnet_util.Sexp.t -> (t, string) result
(** Parse a delta document; errors name the malformed section and
    distinguish an unsupported future version from garbage. *)
