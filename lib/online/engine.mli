(** The online traffic engine: serve a dynamic request workload over a
    shared quantum network.

    A deterministic discrete-event simulation.  Four event kinds drive
    it, ordered by an {!Event_queue} (FIFO among equal timestamps) that
    reads arrivals, faults and reconfigurations from the run's inputs
    through cursors and keeps only retries and expiries in its heap:

    - {e arrival} — a {!Workload.request} appears and is routed by the
      configured {!Policy} against the live residual capacity;
    - {e retry} — a queued request re-attempts routing after an
      exponential-backoff delay (and expires at its deadline);
    - {e lease expiry} — a served request's lease ends; its switch
      qubits return to the pool ({!Qnet_sim.Scheduler.Lease.release},
      which asserts the capacity invariant), and the waiting queue is
      re-scanned in FIFO order (work conservation);
    - {e fault/repair} — an infrastructure element (fiber or switch)
      fails or comes back, per a pre-materialised
      {!Qnet_faults.Schedule}.  A failure that lands on an in-service
      lease triggers the configured {!recovery} policy; a repair
      re-scans the waiting queue, since connectivity just improved.

    Admission control bounds the waiting queue: an unroutable arrival is
    rejected outright ({!Reject}) or queued up to a maximum queue length
    ({!Queue}).  Every request ends in exactly one of five states —
    served, rejected (admission), shed (overload control), expired
    (deadline), or interrupted (fault with no recovery) — and the
    engine's SLA accounting is mirrored into the [online.engine.*],
    [online.faults.*] and [online.overload.*] telemetry metrics.

    {b Overload control.}  An optional {!Qnet_overload.Admission.t}
    bounds the run three ways: a token-bucket rate limit sheds
    over-rate arrivals before any routing, an in-flight lease cap
    blocks new serves while the network is saturated, and a queue-depth
    limit sheds the {e cheapest-to-refuse} waiter (largest group, then
    loosest deadline, then id) instead of letting the backlog grow.
    [budget] meters every policy invocation with a fresh
    {!Qnet_overload.Budget} so a pathological instance exhausts fuel
    (counted, treated as a failed attempt) instead of stalling the run;
    a {!Policy.tiered} policy plugs in through [tier_stats] so the
    report can attribute each served request to its degradation tier.

    {b Determinism.}  Events commit in one total order — (time, push
    seq), with lease ids assigned at commit — and the fault schedule is
    materialised before the run from the fault model's own seed.  With a
    pool, batches of same-window events are {e speculatively} solved in
    parallel against capacity snapshots, but commit re-validates every
    speculation against the live state in that same serial order
    (snapshot/solve/commit; see {!run}).  A fixed (workload, fault)
    seed therefore reproduces the report bit-for-bit at every [--jobs]
    level and every [slot] window.

    {b Self-checking.}  Every repaired or rerouted tree passes
    {!Qnet_core.Verify.check_exn} before re-entering service, every
    served tree is re-validated after the run, and the engine fails loud
    if any switch shows residual consumption once all leases are gone
    (a refund bug, not a routing outcome). *)

type admission =
  | Reject  (** Drop unroutable arrivals immediately. *)
  | Queue of int
      (** Queue unroutable arrivals, rejecting new ones while the
          queue already holds this many requests ([>= 1]). *)

(** What to do when a fault kills a channel of an in-service lease. *)
type recovery =
  | Abort  (** Release the lease, refund everything, end the request. *)
  | Repair
      (** Refund only the dead channels and re-route each between its
          own endpoints over the residual graph minus the failed
          elements ({!Qnet_core.Routing.best_channel} with exclusion);
          falls back to [Abort] when any replacement is infeasible. *)
  | Reroute
      (** Release the whole lease and route the user group from scratch
          with the policy (excluding failed elements); falls back to
          [Abort] when no tree is found. *)

val recovery_of_string : string -> (recovery, string) result
(** Parses ["abort" | "repair" | "reroute"] (the CLI vocabulary). *)

val recovery_to_string : recovery -> string

type config = {
  policy : Policy.t;
  admission : admission;
  retry_base : float;  (** First backoff delay after a failed attempt. *)
  retry_max : float;  (** Backoff growth cap (doubling saturates here). *)
  recovery : recovery;  (** Mid-lease fault response. *)
  overload : Qnet_overload.Admission.t;
      (** Admission limits; {!Qnet_overload.Admission.none} (the
          default) reproduces the unlimited engine exactly. *)
  budget : int option;
      (** Fuel per policy invocation; [None] (default) = unmetered.
          Ignored by {!Policy.tiered} policies, which own their own
          per-tier budgets. *)
  tier_stats : Policy.tier_stats option;
      (** The stats handle returned by {!Policy.tiered} when [policy]
          is a tiered stack — lets the engine label each served request
          with its serving tier and fold breaker/exhaustion counts into
          the report. *)
}

val config :
  ?admission:admission ->
  ?retry_base:float ->
  ?retry_max:float ->
  ?recovery:recovery ->
  ?overload:Qnet_overload.Admission.t ->
  ?budget:int ->
  ?tier_stats:Policy.tier_stats ->
  Policy.t ->
  config
(** Defaults: [Queue 32], [retry_base = 0.5], [retry_max = 8.],
    [recovery = Repair], no overload limits, no budget.
    @raise Invalid_argument on a non-positive backoff,
    [retry_max < retry_base], [Queue n] with [n < 1] or a non-positive
    budget. *)

type shed_reason =
  | Rate_limit  (** The token bucket was empty at arrival. *)
  | Queue_pressure
      (** The queue-depth limit was hit and this request ranked
          cheapest-to-refuse. *)

type resolution =
  | Served of {
      start : float;  (** Admission time ([>= arrival]). *)
      finish : float;  (** Lease expiry ([start + duration]). *)
      tree : Qnet_core.Ent_tree.t;
          (** The tree in service at completion — after any mid-lease
              repairs, so it can differ from the tree admitted. *)
      rate : float;  (** Eq. (2) rate of the final tree. *)
      attempts : int;  (** Routing attempts including the final one. *)
      recoveries : int;  (** Mid-lease fault recoveries survived. *)
      tier : int;
          (** Index of the {!Policy.tiered} tier that produced the tree
              in service ([0] = primary), or [-1] under an untiered
              policy. *)
    }
  | Rejected of { at : float; queue_full : bool }
      (** Turned away at arrival: unroutable under {!Reject}, or the
          bounded queue was full. *)
  | Shed of { at : float; reason : shed_reason }
      (** Refused by overload control — deliberately, before consuming
          solver time, unlike [Rejected] which records capacity
          pressure. *)
  | Expired of { at : float; attempts : int }
      (** Queued but not served before its deadline. *)
  | Interrupted of {
      start : float;  (** When the lease had started. *)
      at : float;  (** When the fault ended it. *)
      attempts : int;
      recoveries : int;  (** Recoveries survived before the fatal one. *)
    }
      (** In service when a fault killed a channel and recovery failed
          (or was configured off): the lease was refunded and the
          request ended unserved. *)

type outcome = { request : Workload.request; resolution : resolution }

(** One service-affecting fault hit, as seen by [?on_incident]. *)
type incident = {
  at : float;
  request_id : int;
  element : Qnet_faults.Schedule.element;  (** What failed. *)
  before : Qnet_core.Ent_tree.t;  (** Tree in service when it failed. *)
  after : Qnet_core.Ent_tree.t option;
      (** The repaired/rerouted tree, or [None] when aborted. *)
}

type report = {
  arrived : int;
  served : int;
  rejected : int;
  expired : int;
  acceptance_ratio : float;  (** served / arrived; [0.] when empty. *)
  mean_wait : float;  (** Mean admission wait over served requests. *)
  p95_wait : float;
  mean_rate : float;  (** Mean Eq. (2) rate over served requests. *)
  throughput : float;  (** Served requests per time unit of makespan. *)
  makespan : float;
      (** Last consequential event time; infrastructure churn after the
          final request resolution does not extend it. *)
  peak_qubits_in_use : int;
  peak_queue_depth : int;
  retries : int;  (** Total re-routing attempts beyond first tries. *)
  mean_utilization : float;
      (** Time-averaged leased fraction of all switch qubits over the
          makespan, in [\[0, 1\]]. *)
  faults_injected : int;
      (** Element down-transitions applied during the run. *)
  faults_repaired : int;  (** Element up-transitions applied. *)
  leases_interrupted : int;
      (** Fault hits on in-service leases (one lease can be hit more
          than once); equals [leases_recovered + leases_aborted]. *)
  leases_recovered : int;  (** Hits survived via repair/reroute. *)
  leases_aborted : int;  (** Hits that ended the request unserved. *)
  mean_time_to_repair : float;
      (** Observed mean element downtime over completed repairs. *)
  mean_lost_service : float;
      (** Mean unserved lease remainder over aborted leases. *)
  shed : int;  (** Requests refused by overload control. *)
  gate_rejected : int;
      (** Arrivals rejected by the provable-infeasibility oracle
          ({!Qnet_overload.Admission.t.infeasible}) before any routing
          work; a subset of [rejected]. *)
  degraded : int;
      (** Served requests whose final tree came from a fallback tier
          (tier index > 0). *)
  tier_served : (string * int) list;
      (** Served-request count per tier, in tier order; [\[\]] under an
          untiered policy. *)
  budget_exhaustions : int;
      (** Policy invocations aborted by fuel exhaustion (engine-level
          budget plus all tier budgets). *)
  breaker_opens : int;  (** Circuit-breaker trips across all tiers. *)
  p99_wait : float;
  reconfig_applied : int;
      (** Administrative topology changes that took effect (a join of an
          already-up element, or a leave of an already-down one, is a
          no-op and not counted). *)
  reconfig_recovered : int;
      (** Lease recoveries forced by administrative changes (drains and
          quota shrinks), a subset of [leases_recovered] +
          [leases_aborted] attribution. *)
}

(** {1 Checkpoint snapshots}

    A {!snapshot} is a pure-data image of the complete engine state at
    an event-loop boundary: a cursor into each pre-scheduled sequence
    (arrivals, faults, reconfigurations), the retries and expiries still
    pending with their FIFO seqs, the progress of every unsettled
    request, active leases as channel vertex-paths, settled outcomes,
    capacity quota/residual deltas, and the mutable state of the
    limiter, element health, tiered-policy breakers, policy-owned caches
    ({!Policy.state_hooks}) and telemetry registry.  Restoring
    it into {!run} (with the {e same} graph, params, workload, and
    flags) continues the run to a report byte-identical to the
    uninterrupted one, at every [--jobs] level and [slot] window.

    The record and its component types are concrete so the incremental-
    checkpoint delta codec ({!Qnet_resilience.Delta}) can diff
    consecutive snapshots field by field; treat them as read-only data
    — a hand-built snapshot that lies about capacity accounting is
    rejected at restore time, not silently trusted.

    Snapshots serialise to a versioned s-expression
    ([muerp-engine-snapshot/3]); {!snapshot_of_sexp} is a pure parse —
    graph/workload consistency is validated inside {!run} at restore
    time, which raises [Invalid_argument] with a reason naming the
    mismatch (wrong workload, wrong network, different flags, corrupt
    capacity accounting). *)

(** A pending event pushed during the run, with the request or lease
    referenced by id (a restore replays the original workload, so ids
    resolve against the [~requests] the caller passes back in).
    Arrivals, faults and reconfigurations are never pushed: they are
    read from the run's inputs through cursors (see {!s_cursor}). *)
type s_event = SE_retry of int | SE_expiry of int

(** How far the run has read one pre-scheduled sequence (the arrivals
    in workload order, the sorted fault schedule, or the time-sorted
    reconfiguration list), with the sequence's length and a digest of
    its times and contents (arrival ids, fault elements and directions,
    reconfiguration changes).  A restore rebuilds the sequence from its
    own inputs and refuses it, naming the sequence, when the length or
    digest differs. *)
type s_cursor = {
  sc_next : int;  (** Items already popped. *)
  sc_length : int;
  sc_digest : int;
}

(** A settled outcome, trees flattened to channel vertex-paths. *)
type s_resolution =
  | SR_served of {
      r_start : float;
      r_finish : float;
      r_paths : int list list;
      r_rate : float;
      r_attempts : int;
      r_recoveries : int;
      r_tier : int;
    }
  | SR_rejected of { r_at : float; r_queue_full : bool }
  | SR_shed of { r_at : float; r_reason : shed_reason }
  | SR_expired of { r_at : float; r_attempts : int }
  | SR_interrupted of {
      r_start : float;
      r_at : float;
      r_attempts : int;
      r_recoveries : int;
    }

type s_state = {
  ss_id : int;
  ss_attempts : int;
  ss_backoff : float;
  ss_waiting : bool;
}
(** Progress of a request that has arrived but is not settled yet;
    settled requests appear only among the outcomes. *)

type s_active = {
  sa_lid : int;
  sa_id : int;
  sa_paths : int list list;
  sa_started : float;
  sa_finish : float;
  sa_recoveries : int;
  sa_tier : int;
}

type s_tier = {
  st_serves : int array;
  st_exhaustions : int array;
  st_verify_rejects : int array;
  st_breaker_skips : int array;
  st_breakers : (Qnet_overload.Breaker.state * int * int * int) array;
  st_last : int;
}

type snapshot = {
  s_at : float;
  s_next_ckpt : float;
  s_arrivals : s_cursor;
  s_faults : s_cursor;
  s_reconfig : s_cursor;
  s_events : (float * int * s_event) list;
      (** Pushed events still pending (retries and expiries), in
          (time, seq) order. *)
  s_next_seq : int;
  s_states : s_state list;
  s_queue : int list;
  s_active : s_active list;
  s_outcomes : (int * s_resolution) list;  (** newest first, as accrued *)
  s_next_lease : int;
  s_quota : (int * int) list;
  s_residual : (int * int) list;
  s_shed_total : int;
  s_gate_rejected : int;
  s_budget_exhaustions : int;
  s_peak_qubits : int;
  s_peak_queue : int;
  s_retries : int;
  s_util_integral : float;
  s_last_time : float;
  s_makespan : float;
  s_faults_injected : int;
  s_faults_repaired : int;
  s_leases_interrupted : int;
  s_leases_recovered : int;
  s_leases_aborted : int;
  s_lost_service : float;
  s_reconfig_applied : int;
  s_reconfig_recovered : int;
  s_limiter : (float * float) option;
  s_health : Qnet_faults.Health.snapshot option;
  s_tier : s_tier option;
  s_policy : Qnet_util.Sexp.t option;
      (** Opaque policy-owned state from {!Policy.state_hooks.save};
          restore refuses a snapshot whose presence disagrees with the
          configured policy. *)
  s_metrics : (string * Qnet_telemetry.Metrics.dumped) list option;
}

val snapshot_at : snapshot -> float
(** The simulation instant the snapshot was cut at. *)

val snapshot_version : string
(** The serialisation tag, [muerp-engine-snapshot/3]. *)

val snapshot_to_sexp : snapshot -> Qnet_util.Sexp.t

val snapshot_of_sexp : Qnet_util.Sexp.t -> (snapshot, string) result
(** Structural parse; rejects unknown versions and malformed documents
    with a human-readable reason. *)

(** {2 Element codecs}

    The per-element serialisers behind {!snapshot_to_sexp}, exported so
    the incremental-checkpoint delta codec renders exactly the same
    bytes for the entries it carries. *)

val s_event_to_sexp : s_event -> Qnet_util.Sexp.t
val s_event_of_sexp : Qnet_util.Sexp.t -> (s_event, string) result
val s_cursor_to_sexp : s_cursor -> Qnet_util.Sexp.t
val s_cursor_of_sexp : Qnet_util.Sexp.t -> (s_cursor, string) result
val s_state_to_sexp : s_state -> Qnet_util.Sexp.t
val s_state_of_sexp : Qnet_util.Sexp.t -> (s_state, string) result
val s_active_to_sexp : s_active -> Qnet_util.Sexp.t
val s_active_of_sexp : Qnet_util.Sexp.t -> (s_active, string) result
val s_resolution_to_sexp : s_resolution -> Qnet_util.Sexp.t
val s_resolution_of_sexp : Qnet_util.Sexp.t -> (s_resolution, string) result

val dumped_to_sexp :
  string * Qnet_telemetry.Metrics.dumped -> Qnet_util.Sexp.t

val dumped_of_sexp :
  Qnet_util.Sexp.t -> (string * Qnet_telemetry.Metrics.dumped, string) result

val health_to_sexp : Qnet_faults.Health.snapshot -> Qnet_util.Sexp.t

val health_of_sexp :
  Qnet_util.Sexp.t -> (Qnet_faults.Health.snapshot, string) result

val tier_to_sexp : s_tier -> Qnet_util.Sexp.t
val tier_of_sexp : Qnet_util.Sexp.t -> (s_tier, string) result

(** {1 Committed transitions}

    The write-ahead journal's vocabulary: one entry per durable engine
    mutation, emitted through [?on_transition] at the exact commit
    point, in commit order.  Because the engine is deterministic, a run
    restored from a checkpoint cut re-emits the same stream from that
    cut onward — which is what lets a journal tail be verified by
    re-execution instead of trusted. *)
type transition =
  | T_admit of { at : float; lid : int; request : int }
      (** A lease was committed ([lid] assigned) for [request]. *)
  | T_release of { at : float; lid : int }
      (** The lease expired normally; its qubits were refunded. *)
  | T_recover of { at : float; lid : int }
      (** A fault or admin change hit the lease and recovery kept it in
          service (repaired or rerouted). *)
  | T_abort of { at : float; lid : int }
      (** A hit ended the lease unserved (refund + interruption). *)
  | T_fault of { at : float; link : bool; element : int; up : bool }
      (** An element availability transition was applied ([link]
          selects edge vs switch id space). *)
  | T_reconfig of { at : float; link : bool; element : int; up : bool }
      (** Same, but operator-driven (leave/join/remove/add). *)
  | T_provision of { at : float; switch : int; qubits : int }
      (** A quota re-provision took effect. *)

val run :
  ?config:config ->
  ?faults:Qnet_faults.Model.t ->
  ?fault_schedule:Qnet_faults.Schedule.event list ->
  ?on_incident:(incident -> unit) ->
  ?on_health:(Qnet_faults.Health.t -> unit) ->
  ?on_transition:(transition -> unit) ->
  ?pool:Qnet_util.Pool.t ->
  ?slot:float ->
  ?checkpoint:float * (float -> snapshot -> unit) ->
  ?reconfig:Reconfig.event list ->
  ?restore_from:snapshot ->
  Qnet_graph.Graph.t ->
  Qnet_core.Params.t ->
  requests:Workload.request list ->
  report * outcome list
(** Serve the workload to completion (default config: {!Policy.prim}
    with the {!config} defaults).  [faults] enables fault injection: the
    schedule is generated over the horizon no request can outlive.
    [fault_schedule] replays an explicit (arbitrary, even adversarial)
    transition list instead — it is sorted with
    {!Qnet_faults.Schedule.compare_event} and overrides [faults]; the
    chaos tests use it to pin failures to exact instants.
    [on_incident] observes every service-affecting hit as it happens
    (chaos tests reconstruct per-lease tree timelines from it).
    [on_health] receives the live {!Qnet_faults.Health.t} once, before
    the first event — the hook callers use to register
    {!Qnet_faults.Health.on_transition} observers (e.g. eager cache
    invalidation in the hierarchical router); it is not called when no
    fault source is configured.  [on_transition] observes every
    committed {!transition} in commit order — the write-ahead journal's
    feed; it fires only for mutations the run itself commits (a
    restored run starts emitting at its cut, exactly where the original
    run's journal left off).

    [pool] enables the {e batched concurrent serving} path: at each
    round the engine drains the batch of same-timestamp events ([slot]
    widens the window to [\[t, t + slot\]], default [0.]), solves every
    routable request of the batch concurrently against zero-copy
    {!Qnet_core.Capacity.overlay} snapshots of the residual state, then
    commits in the exact serial event order, re-validating each
    speculative tree against the live residual
    ({!Qnet_sim.Scheduler.Lease.commit}) and re-solving live whenever
    the state moved since the snapshot (any capacity mutation or fault
    transition).  Speculation requires the policy to declare
    {!Policy.t.concurrent_safe}; otherwise — and when called from
    inside a parallel region — the pool is used only for the read-only
    final verification pass.  Either way the resolution stream, lease
    ids, report and [online.*] counters are byte-identical to the
    serial engine at every pool size and every [slot]; parallelism and
    batching are pure go-faster knobs.  Outcomes are returned in
    request-id order.  Deterministic: identical inputs give identical
    reports and outcomes at every pool size.

    [checkpoint = (every, sink)] cuts a {!snapshot} at each multiple of
    [every] (simulation time), calling [sink instant snapshot] at the
    first event-loop boundary at or past the instant — so a snapshot
    reflects exactly the events before it.  Instants after the last
    event never fire (the run is already complete).  [restore_from]
    resumes a run from a snapshot instead of a fresh start: pass the
    {e same} graph, params, [~requests] and flags as the original run
    — the arrivals, fault schedule and reconfiguration list are rebuilt
    from them, and a sequence whose length or digest differs from the
    snapshot's is refused with a message naming it;
    the continuation's report, outcomes and [online.*] counters are
    byte-identical to the uninterrupted run's.  A restored run with
    [checkpoint] resumes the original cadence.  Both require a policy
    with {!Policy.t.checkpoint_safe} (memoising wrappers keep hidden
    cache state a snapshot cannot carry).

    [reconfig] applies live topology changes mid-run without draining
    traffic: leaves/removals recover affected leases through the
    configured {!recovery} policy and exclude the element from routing
    (exactly as a fault would, including
    {!Qnet_faults.Health.on_transition} observer notification);
    joins/additions re-admit elements and re-scan the waiting queue; a
    {!Reconfig.Provision} moves a switch's {!Qnet_core.Capacity} quota,
    recovering crossing leases oldest-first when shrunk below current
    usage.  At a shared instant, arrivals fire before faults, and
    faults before reconfigurations.
    @raise Invalid_argument on malformed requests (non-user members,
    fewer than 2 users, duplicate ids, negative times, deadline before
    arrival), a negative/non-finite [slot], a non-positive checkpoint
    interval, an invalid [reconfig] list ({!Reconfig.validate}), a
    checkpoint/restore request under a non-[checkpoint_safe] policy, or
    a [restore_from] snapshot inconsistent with this run's graph,
    workload or flags.
    @raise Qnet_core.Verify.Violations if a repaired or served tree
    fails independent re-validation (a routing bug, never a workload
    property). *)

val report_table : report -> Qnet_util.Table.t
(** Two-column (metric, value) rendering of the SLA summary — the
    reproducible artifact [muerp traffic] prints.  Overload rows (shed,
    degraded, budget exhaustions, breaker trips, p99 wait, per-tier
    serve counts) are appended only when overload control actually did
    something, so limits-disabled runs print the historical table
    byte-for-byte; reconfiguration rows likewise only when an admin
    change was applied. *)
