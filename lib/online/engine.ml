module Graph = Qnet_graph.Graph
module Lease = Qnet_sim.Scheduler.Lease
module Tm = Qnet_telemetry.Metrics
module Fmodel = Qnet_faults.Model
module Fsched = Qnet_faults.Schedule
module Fhealth = Qnet_faults.Health
module Admission_ctl = Qnet_overload.Admission
module Limiter = Qnet_overload.Limiter
module Budget = Qnet_overload.Budget
module Breaker = Qnet_overload.Breaker
open Qnet_core

let c_arrivals = Tm.counter "online.engine.arrivals"
let c_served = Tm.counter "online.engine.served"
let c_rejected = Tm.counter "online.engine.rejected"
let c_expired = Tm.counter "online.engine.expired"
let c_retries = Tm.counter "online.engine.retries"
let g_peak_qubits = Tm.gauge "online.engine.peak_qubits_in_use"
let g_peak_queue = Tm.gauge "online.engine.peak_queue_depth"
let g_utilization = Tm.gauge "online.engine.mean_utilization"
let h_wait = Tm.histogram "online.engine.wait_time"
let h_rate = Tm.histogram "online.engine.served_rate"
let c_faults_injected = Tm.counter "online.faults.injected"
let c_faults_repaired = Tm.counter "online.faults.repaired"
let c_leases_interrupted = Tm.counter "online.faults.interrupted"
let c_leases_recovered = Tm.counter "online.faults.recovered"
let c_leases_aborted = Tm.counter "online.faults.aborted"
let h_recovery = Tm.histogram "online.faults.recovery_seconds"
let c_shed = Tm.counter "online.overload.shed"
let c_shed_rate = Tm.counter "online.overload.shed_rate_limited"
let c_shed_queue = Tm.counter "online.overload.shed_queue_pressure"
let c_inflight_blocked = Tm.counter "online.overload.inflight_blocked"
let c_budget_exhausted = Tm.counter "online.overload.budget_exhausted"
let c_degraded = Tm.counter "online.overload.degraded"
let c_gate_rejected = Tm.counter "online.flow.gate_rejected"
let g_queue_limit = Tm.gauge "online.overload.max_queue"
let c_reconfig_applied = Tm.counter "online.reconfig.applied"
let c_reconfig_recovered = Tm.counter "online.reconfig.recovered"

type admission = Reject | Queue of int
type recovery = Abort | Repair | Reroute

let recovery_of_string = function
  | "abort" -> Ok Abort
  | "repair" -> Ok Repair
  | "reroute" -> Ok Reroute
  | s ->
      Error
        (Printf.sprintf "unknown recovery policy %S (expected abort|repair|reroute)" s)

let recovery_to_string = function
  | Abort -> "abort"
  | Repair -> "repair"
  | Reroute -> "reroute"

type config = {
  policy : Policy.t;
  admission : admission;
  retry_base : float;
  retry_max : float;
  recovery : recovery;
  overload : Admission_ctl.t;
  budget : int option;
  tier_stats : Policy.tier_stats option;
}

let config ?(admission = Queue 32) ?(retry_base = 0.5) ?(retry_max = 8.)
    ?(recovery = Repair) ?(overload = Admission_ctl.none) ?budget ?tier_stats
    policy =
  (match admission with
  | Reject -> ()
  | Queue n -> if n < 1 then invalid_arg "Engine.config: queue bound < 1");
  if retry_base <= 0. || not (Float.is_finite retry_base) then
    invalid_arg "Engine.config: retry_base must be positive";
  if retry_max < retry_base then
    invalid_arg "Engine.config: retry_max < retry_base";
  (match budget with
  | Some f when f <= 0 -> invalid_arg "Engine.config: budget must be positive"
  | _ -> ());
  { policy; admission; retry_base; retry_max; recovery; overload; budget;
    tier_stats }

type shed_reason = Rate_limit | Queue_pressure

type resolution =
  | Served of {
      start : float;
      finish : float;
      tree : Ent_tree.t;
      rate : float;
      attempts : int;
      recoveries : int;
      tier : int;
    }
  | Rejected of { at : float; queue_full : bool }
  | Shed of { at : float; reason : shed_reason }
  | Expired of { at : float; attempts : int }
  | Interrupted of {
      start : float;
      at : float;
      attempts : int;
      recoveries : int;
    }

type outcome = { request : Workload.request; resolution : resolution }

type incident = {
  at : float;
  request_id : int;
  element : Fsched.element;
  before : Ent_tree.t;
  after : Ent_tree.t option;
}

type report = {
  arrived : int;
  served : int;
  rejected : int;
  expired : int;
  acceptance_ratio : float;
  mean_wait : float;
  p95_wait : float;
  mean_rate : float;
  throughput : float;
  makespan : float;
  peak_qubits_in_use : int;
  peak_queue_depth : int;
  retries : int;
  mean_utilization : float;
  faults_injected : int;
  faults_repaired : int;
  leases_interrupted : int;
  leases_recovered : int;
  leases_aborted : int;
  mean_time_to_repair : float;
  mean_lost_service : float;
  shed : int;
  gate_rejected : int;
  degraded : int;
  tier_served : (string * int) list;
  budget_exhaustions : int;
  breaker_opens : int;
  p99_wait : float;
  reconfig_applied : int;
  reconfig_recovered : int;
}

type event =
  | Arrival of Workload.request
  | Retry of int
  | Expiry of int
  | Fault of Fsched.event
  | Reconf of Reconfig.event

(* Outcome of one speculative routing solve against a capacity
   snapshot.  [Spec_none] and [Spec_exhausted] are verdicts the commit
   loop can reuse directly (a request the policy could not serve on the
   snapshot cannot be served on the identical live state); a
   [Spec_tree] is re-validated against the live residual at commit. *)
type speculation =
  | Spec_tree of Ent_tree.t
  | Spec_none
  | Spec_exhausted

type req_state = {
  req : Workload.request;
  mutable attempts : int;
  mutable backoff : float;
  mutable waiting : bool;
}

(* A lease in service, with everything a mid-lease fault needs to
   repair or settle it. *)
type active = {
  lid : int;
  st : req_state;
  mutable lease : Lease.t;
  mutable tree : Ent_tree.t;
  started : float;
  finish : float;
  mutable recoveries : int;
  mutable tier : int;
}

(* ------------------------------------------------------------------ *)
(* Checkpoint snapshots.

   A snapshot is a pure-data image of the complete engine state at an
   event-loop boundary: how far the run has read each pre-scheduled
   sequence (arrivals, faults, reconfigurations — the restoring run
   rebuilds them from its own inputs, and a length + digest pins them
   to the snapshot's), the events pushed during the run that are still
   pending (with their heap seqs, so the FIFO tiebreaker survives the
   round-trip), the progress of every unsettled request, the active
   leases as channel vertex-paths (trees are rebuilt against the
   restoring run's graph, which re-validates them), settled outcomes,
   capacity quota/residual deltas, and the mutable state of every
   collaborating subsystem (limiter, health, tiered-policy breakers,
   telemetry registry).  Requests themselves are referenced by id — a
   restore replays the original workload, so the ids resolve against
   the [~requests] the caller passes back in. *)

type s_event = SE_retry of int | SE_expiry of int

type s_cursor = { sc_next : int; sc_length : int; sc_digest : int }

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
  st_breakers : (Breaker.state * int * int * int) array;
  st_last : int;
}

type snapshot = {
  s_at : float;
  s_next_ckpt : float;
      (* the uninterrupted run's next checkpoint instant, so a restored
         continuation emits its own checkpoints at the same instants *)
  s_arrivals : s_cursor;
  s_faults : s_cursor;
  s_reconfig : s_cursor;
  s_events : (float * int * s_event) list;
  s_next_seq : int;
  s_states : s_state list;
  s_queue : int list;
  s_active : s_active list;
  s_outcomes : (int * s_resolution) list;  (* newest first, as accrued *)
  s_next_lease : int;
  s_quota : (int * int) list;  (* switches re-provisioned off the graph *)
  s_residual : (int * int) list;  (* switches with qubits in use *)
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
  s_health : Fhealth.snapshot option;
  s_tier : s_tier option;
  s_policy : Qnet_util.Sexp.t option;
      (* opaque policy-owned state (Policy.state_hooks) *)
  s_metrics : (string * Tm.dumped) list option;
}

(* Committed state transitions, in commit order — the write-ahead
   journal's vocabulary.  Every entry is emitted at the exact point the
   engine mutates durable state (lease table, health, capacity quota),
   so a restored run re-emits the same stream from its cut onward and a
   journal tail can be verified against the deterministic
   re-execution. *)
type transition =
  | T_admit of { at : float; lid : int; request : int }
  | T_release of { at : float; lid : int }
  | T_recover of { at : float; lid : int }
  | T_abort of { at : float; lid : int }
  | T_fault of { at : float; link : bool; element : int; up : bool }
  | T_reconfig of { at : float; link : bool; element : int; up : bool }
  | T_provision of { at : float; switch : int; qubits : int }

let snapshot_at s = s.s_at
let snapshot_version = "muerp-engine-snapshot/3"

module Sexp = Qnet_util.Sexp

let sx_bool b = Sexp.atom (if b then "true" else "false")
let sx_paths paths =
  Sexp.list (List.map (fun p -> Sexp.list (List.map Sexp.int p)) paths)

let s_event_to_sexp = function
  | SE_retry id -> Sexp.list [ Sexp.atom "retry"; Sexp.int id ]
  | SE_expiry lid -> Sexp.list [ Sexp.atom "expiry"; Sexp.int lid ]

let s_cursor_to_sexp c =
  Sexp.list [ Sexp.int c.sc_next; Sexp.int c.sc_length; Sexp.int c.sc_digest ]

let s_state_to_sexp ss =
  Sexp.list
    [ Sexp.int ss.ss_id; Sexp.int ss.ss_attempts; Sexp.float ss.ss_backoff;
      sx_bool ss.ss_waiting ]

let s_active_to_sexp sa =
  Sexp.list
    [ Sexp.int sa.sa_lid; Sexp.int sa.sa_id; Sexp.float sa.sa_started;
      Sexp.float sa.sa_finish; Sexp.int sa.sa_recoveries; Sexp.int sa.sa_tier;
      sx_paths sa.sa_paths ]

let s_resolution_to_sexp = function
  | SR_served r ->
      Sexp.list
        [ Sexp.atom "served"; Sexp.float r.r_start; Sexp.float r.r_finish;
          Sexp.float r.r_rate; Sexp.int r.r_attempts; Sexp.int r.r_recoveries;
          Sexp.int r.r_tier; sx_paths r.r_paths ]
  | SR_rejected r ->
      Sexp.list
        [ Sexp.atom "rejected"; Sexp.float r.r_at; sx_bool r.r_queue_full ]
  | SR_shed r ->
      Sexp.list
        [ Sexp.atom "shed"; Sexp.float r.r_at;
          Sexp.atom
            (match r.r_reason with
            | Rate_limit -> "rate"
            | Queue_pressure -> "queue") ]
  | SR_expired r ->
      Sexp.list [ Sexp.atom "expired"; Sexp.float r.r_at; Sexp.int r.r_attempts ]
  | SR_interrupted r ->
      Sexp.list
        [ Sexp.atom "interrupted"; Sexp.float r.r_start; Sexp.float r.r_at;
          Sexp.int r.r_attempts; Sexp.int r.r_recoveries ]

let breaker_state_str = function
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half-open"

let dumped_to_sexp (name, d) =
  match d with
  | Tm.D_counter n -> Sexp.list [ Sexp.atom name; Sexp.atom "counter"; Sexp.int n ]
  | Tm.D_gauge v -> Sexp.list [ Sexp.atom name; Sexp.atom "gauge"; Sexp.float v ]
  | Tm.D_histogram h ->
      Sexp.list
        [ Sexp.atom name; Sexp.atom "hist"; Sexp.int h.Tm.d_n;
          Sexp.float h.Tm.d_sum; Sexp.float h.Tm.d_vmin; Sexp.float h.Tm.d_vmax;
          Sexp.list (List.map Sexp.int (Array.to_list h.Tm.d_counts)) ]

let fld name elts = Sexp.list (Sexp.atom name :: elts)

(* Health and tier state serialise through shared field lists so the
   incremental-checkpoint delta codec renders exactly the bytes the
   full snapshot would. *)
let health_fields h =
  let ints l = List.map Sexp.int l in
  let floats l = List.map Sexp.float l in
  [
    fld "link-down" (ints (Array.to_list h.Fhealth.s_link_down));
    fld "switch-down" (ints (Array.to_list h.Fhealth.s_switch_down));
    fld "link-since" (floats (Array.to_list h.Fhealth.s_link_since));
    fld "switch-since" (floats (Array.to_list h.Fhealth.s_switch_since));
    fld "repairs" [ Sexp.int h.Fhealth.s_repairs ];
    fld "downtime" [ Sexp.float h.Fhealth.s_total_downtime ];
  ]

let health_to_sexp h = Sexp.list (health_fields h)

let tier_fields st =
  let ints l = List.map Sexp.int l in
  [
    fld "serves" (ints (Array.to_list st.st_serves));
    fld "exhaustions" (ints (Array.to_list st.st_exhaustions));
    fld "verify-rejects" (ints (Array.to_list st.st_verify_rejects));
    fld "breaker-skips" (ints (Array.to_list st.st_breaker_skips));
    fld "breakers"
      (List.map
         (fun (bs, cf, cd, op) ->
           Sexp.list
             [ Sexp.atom (breaker_state_str bs); Sexp.int cf; Sexp.int cd;
               Sexp.int op ])
         (Array.to_list st.st_breakers));
    fld "last" [ Sexp.int st.st_last ];
  ]

let tier_to_sexp st = Sexp.list (tier_fields st)

let snapshot_to_sexp s =
  let pair (a, b) = Sexp.list [ Sexp.int a; Sexp.int b ] in
  let ints l = List.map Sexp.int l in
  Sexp.list
    [
      Sexp.atom snapshot_version;
      fld "at" [ Sexp.float s.s_at ];
      fld "next-ckpt" [ Sexp.float s.s_next_ckpt ];
      fld "next-seq" [ Sexp.int s.s_next_seq ];
      fld "next-lease" [ Sexp.int s.s_next_lease ];
      fld "arrivals" [ s_cursor_to_sexp s.s_arrivals ];
      fld "faults" [ s_cursor_to_sexp s.s_faults ];
      fld "reconfig" [ s_cursor_to_sexp s.s_reconfig ];
      fld "events"
        (List.map
           (fun (t, seq, ev) ->
             Sexp.list [ Sexp.float t; Sexp.int seq; s_event_to_sexp ev ])
           s.s_events);
      fld "states" (List.map s_state_to_sexp s.s_states);
      fld "queue" (ints s.s_queue);
      fld "active" (List.map s_active_to_sexp s.s_active);
      fld "outcomes"
        (List.map
           (fun (id, res) ->
             Sexp.list [ Sexp.int id; s_resolution_to_sexp res ])
           s.s_outcomes);
      fld "quota" (List.map pair s.s_quota);
      fld "residual" (List.map pair s.s_residual);
      fld "shed" [ Sexp.int s.s_shed_total ];
      fld "gate-rejected" [ Sexp.int s.s_gate_rejected ];
      fld "budget-exhaustions" [ Sexp.int s.s_budget_exhaustions ];
      fld "peak-qubits" [ Sexp.int s.s_peak_qubits ];
      fld "peak-queue" [ Sexp.int s.s_peak_queue ];
      fld "retries" [ Sexp.int s.s_retries ];
      fld "util-integral" [ Sexp.float s.s_util_integral ];
      fld "last-time" [ Sexp.float s.s_last_time ];
      fld "makespan" [ Sexp.float s.s_makespan ];
      fld "faults-injected" [ Sexp.int s.s_faults_injected ];
      fld "faults-repaired" [ Sexp.int s.s_faults_repaired ];
      fld "interrupted" [ Sexp.int s.s_leases_interrupted ];
      fld "recovered" [ Sexp.int s.s_leases_recovered ];
      fld "aborted" [ Sexp.int s.s_leases_aborted ];
      fld "lost-service" [ Sexp.float s.s_lost_service ];
      fld "reconfig-applied" [ Sexp.int s.s_reconfig_applied ];
      fld "reconfig-recovered" [ Sexp.int s.s_reconfig_recovered ];
      fld "limiter"
        (match s.s_limiter with
        | None -> []
        | Some (tokens, last) -> [ Sexp.float tokens; Sexp.float last ]);
      fld "health"
        (match s.s_health with None -> [] | Some h -> health_fields h);
      fld "tier" (match s.s_tier with None -> [] | Some st -> tier_fields st);
      fld "policy" (match s.s_policy with None -> [] | Some doc -> [ doc ]);
      fld "metrics"
        (match s.s_metrics with
        | None -> []
        | Some d -> List.map dumped_to_sexp d);
    ]

(* --- snapshot parsing (pure: graph/workload validation happens at
   restore time inside [run], where both are in scope) --------------- *)

let ( let* ) = Result.bind

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let sx_to_bool = function
  | Sexp.Atom "true" -> Ok true
  | Sexp.Atom "false" -> Ok false
  | _ -> Error "expected true or false"

let sx_to_paths = function
  | Sexp.List paths ->
      map_result
        (function
          | Sexp.List vs -> map_result Sexp.to_int vs
          | Sexp.Atom _ -> Error "expected a vertex path (list)")
        paths
  | Sexp.Atom _ -> Error "expected a path list"

(* Field access by name over the document's element list.  Unlike
   {!Sexp.field} this never unwraps single-element payloads, so list
   fields with one entry stay lists. *)
let sx_assoc fields name =
  let rec find = function
    | [] -> Error (Printf.sprintf "snapshot: missing field %s" name)
    | Sexp.List (Sexp.Atom n :: rest) :: _ when n = name -> Ok rest
    | _ :: tl -> find tl
  in
  find fields

let sx_field1 fields name =
  let* l = sx_assoc fields name in
  match l with
  | [ x ] -> Ok x
  | _ -> Error (Printf.sprintf "snapshot: field %s expects one value" name)

let sx_int_field fields name =
  let* x = sx_field1 fields name in
  Sexp.to_int x

let sx_float_field fields name =
  let* x = sx_field1 fields name in
  Sexp.to_float x

let sx_int_list l = map_result Sexp.to_int l
let sx_float_list l = map_result Sexp.to_float l

let sx_pair = function
  | Sexp.List [ a; b ] ->
      let* a = Sexp.to_int a in
      let* b = Sexp.to_int b in
      Ok (a, b)
  | _ -> Error "expected an (int int) pair"

let s_event_of_sexp = function
  | Sexp.List [ Sexp.Atom "retry"; id ] ->
      let* id = Sexp.to_int id in
      Ok (SE_retry id)
  | Sexp.List [ Sexp.Atom "expiry"; lid ] ->
      let* lid = Sexp.to_int lid in
      Ok (SE_expiry lid)
  | _ -> Error "malformed pending event"

let s_cursor_of_sexp = function
  | Sexp.List [ next; length; digest ] ->
      let* sc_next = Sexp.to_int next in
      let* sc_length = Sexp.to_int length in
      let* sc_digest = Sexp.to_int digest in
      Ok { sc_next; sc_length; sc_digest }
  | _ -> Error "malformed schedule cursor"

let s_state_of_sexp = function
  | Sexp.List [ id; attempts; backoff; waiting ] ->
      let* ss_id = Sexp.to_int id in
      let* ss_attempts = Sexp.to_int attempts in
      let* ss_backoff = Sexp.to_float backoff in
      let* ss_waiting = sx_to_bool waiting in
      Ok { ss_id; ss_attempts; ss_backoff; ss_waiting }
  | _ -> Error "malformed request-state entry"

let s_active_of_sexp = function
  | Sexp.List [ lid; id; started; finish; recoveries; tier; paths ] ->
      let* sa_lid = Sexp.to_int lid in
      let* sa_id = Sexp.to_int id in
      let* sa_started = Sexp.to_float started in
      let* sa_finish = Sexp.to_float finish in
      let* sa_recoveries = Sexp.to_int recoveries in
      let* sa_tier = Sexp.to_int tier in
      let* sa_paths = sx_to_paths paths in
      Ok
        { sa_lid; sa_id; sa_paths; sa_started; sa_finish; sa_recoveries;
          sa_tier }
  | _ -> Error "malformed active-lease entry"

let s_resolution_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "served"; start; finish; rate; attempts; recoveries; tier;
        paths ] ->
      let* r_start = Sexp.to_float start in
      let* r_finish = Sexp.to_float finish in
      let* r_rate = Sexp.to_float rate in
      let* r_attempts = Sexp.to_int attempts in
      let* r_recoveries = Sexp.to_int recoveries in
      let* r_tier = Sexp.to_int tier in
      let* r_paths = sx_to_paths paths in
      Ok
        (SR_served
           { r_start; r_finish; r_paths; r_rate; r_attempts; r_recoveries;
             r_tier })
  | Sexp.List [ Sexp.Atom "rejected"; at; qf ] ->
      let* r_at = Sexp.to_float at in
      let* r_queue_full = sx_to_bool qf in
      Ok (SR_rejected { r_at; r_queue_full })
  | Sexp.List [ Sexp.Atom "shed"; at; reason ] ->
      let* r_at = Sexp.to_float at in
      let* r_reason =
        match reason with
        | Sexp.Atom "rate" -> Ok Rate_limit
        | Sexp.Atom "queue" -> Ok Queue_pressure
        | _ -> Error "unknown shed reason"
      in
      Ok (SR_shed { r_at; r_reason })
  | Sexp.List [ Sexp.Atom "expired"; at; attempts ] ->
      let* r_at = Sexp.to_float at in
      let* r_attempts = Sexp.to_int attempts in
      Ok (SR_expired { r_at; r_attempts })
  | Sexp.List [ Sexp.Atom "interrupted"; start; at; attempts; recoveries ] ->
      let* r_start = Sexp.to_float start in
      let* r_at = Sexp.to_float at in
      let* r_attempts = Sexp.to_int attempts in
      let* r_recoveries = Sexp.to_int recoveries in
      Ok (SR_interrupted { r_start; r_at; r_attempts; r_recoveries })
  | _ -> Error "malformed outcome resolution"

let breaker_state_of_str = function
  | "closed" -> Ok Breaker.Closed
  | "open" -> Ok Breaker.Open
  | "half-open" -> Ok Breaker.Half_open
  | s -> Error ("unknown breaker state: " ^ s)

let dumped_of_sexp = function
  | Sexp.List [ Sexp.Atom name; Sexp.Atom "counter"; n ] ->
      let* n = Sexp.to_int n in
      Ok (name, Tm.D_counter n)
  | Sexp.List [ Sexp.Atom name; Sexp.Atom "gauge"; v ] ->
      let* v = Sexp.to_float v in
      Ok (name, Tm.D_gauge v)
  | Sexp.List
      [ Sexp.Atom name; Sexp.Atom "hist"; n; sum; vmin; vmax;
        Sexp.List counts ] ->
      let* d_n = Sexp.to_int n in
      let* d_sum = Sexp.to_float sum in
      let* d_vmin = Sexp.to_float vmin in
      let* d_vmax = Sexp.to_float vmax in
      let* counts = sx_int_list counts in
      Ok
        ( name,
          Tm.D_histogram
            { Tm.d_n; d_sum; d_vmin; d_vmax; d_counts = Array.of_list counts }
        )
  | _ -> Error "malformed metric dump entry"

let health_of_fields hf =
  let* ld = sx_assoc hf "link-down" in
  let* s_link_down = sx_int_list ld in
  let* sd = sx_assoc hf "switch-down" in
  let* s_switch_down = sx_int_list sd in
  let* ls = sx_assoc hf "link-since" in
  let* s_link_since = sx_float_list ls in
  let* ss = sx_assoc hf "switch-since" in
  let* s_switch_since = sx_float_list ss in
  let* s_repairs = sx_int_field hf "repairs" in
  let* s_total_downtime = sx_float_field hf "downtime" in
  Ok
    {
      Fhealth.s_link_down = Array.of_list s_link_down;
      s_switch_down = Array.of_list s_switch_down;
      s_link_since = Array.of_list s_link_since;
      s_switch_since = Array.of_list s_switch_since;
      s_repairs;
      s_total_downtime;
    }

let health_of_sexp = function
  | Sexp.List hf -> health_of_fields hf
  | Sexp.Atom _ -> Error "malformed health state"

let tier_of_fields tf =
  let* serves = sx_assoc tf "serves" in
  let* st_serves = sx_int_list serves in
  let* exhaustions = sx_assoc tf "exhaustions" in
  let* st_exhaustions = sx_int_list exhaustions in
  let* vr = sx_assoc tf "verify-rejects" in
  let* st_verify_rejects = sx_int_list vr in
  let* bsk = sx_assoc tf "breaker-skips" in
  let* st_breaker_skips = sx_int_list bsk in
  let* breakers = sx_assoc tf "breakers" in
  let* st_breakers =
    map_result
      (function
        | Sexp.List [ Sexp.Atom state; cf; cd; op ] ->
            let* bs = breaker_state_of_str state in
            let* cf = Sexp.to_int cf in
            let* cd = Sexp.to_int cd in
            let* op = Sexp.to_int op in
            Ok (bs, cf, cd, op)
        | _ -> Error "malformed breaker state")
      breakers
  in
  let* st_last = sx_int_field tf "last" in
  Ok
    {
      st_serves = Array.of_list st_serves;
      st_exhaustions = Array.of_list st_exhaustions;
      st_verify_rejects = Array.of_list st_verify_rejects;
      st_breaker_skips = Array.of_list st_breaker_skips;
      st_breakers = Array.of_list st_breakers;
      st_last;
    }

let tier_of_sexp = function
  | Sexp.List tf -> tier_of_fields tf
  | Sexp.Atom _ -> Error "malformed tier state"

let snapshot_of_sexp doc =
  match doc with
  | Sexp.List (Sexp.Atom v :: fields) when v = snapshot_version ->
      let* s_at = sx_float_field fields "at" in
      let* s_next_ckpt = sx_float_field fields "next-ckpt" in
      let* s_next_seq = sx_int_field fields "next-seq" in
      let* s_next_lease = sx_int_field fields "next-lease" in
      let* a = sx_field1 fields "arrivals" in
      let* s_arrivals = s_cursor_of_sexp a in
      let* f = sx_field1 fields "faults" in
      let* s_faults = s_cursor_of_sexp f in
      let* r = sx_field1 fields "reconfig" in
      let* s_reconfig = s_cursor_of_sexp r in
      let* events = sx_assoc fields "events" in
      let* s_events =
        map_result
          (function
            | Sexp.List [ t; seq; ev ] ->
                let* t = Sexp.to_float t in
                let* seq = Sexp.to_int seq in
                let* ev = s_event_of_sexp ev in
                Ok (t, seq, ev)
            | _ -> Error "malformed pending-event entry")
          events
      in
      let* states = sx_assoc fields "states" in
      let* s_states = map_result s_state_of_sexp states in
      let* queue = sx_assoc fields "queue" in
      let* s_queue = sx_int_list queue in
      let* active = sx_assoc fields "active" in
      let* s_active = map_result s_active_of_sexp active in
      let* outcomes = sx_assoc fields "outcomes" in
      let* s_outcomes =
        map_result
          (function
            | Sexp.List [ id; res ] ->
                let* id = Sexp.to_int id in
                let* res = s_resolution_of_sexp res in
                Ok (id, res)
            | _ -> Error "malformed outcome entry")
          outcomes
      in
      let* quota = sx_assoc fields "quota" in
      let* s_quota = map_result sx_pair quota in
      let* residual = sx_assoc fields "residual" in
      let* s_residual = map_result sx_pair residual in
      let* s_shed_total = sx_int_field fields "shed" in
      let* s_gate_rejected = sx_int_field fields "gate-rejected" in
      let* s_budget_exhaustions = sx_int_field fields "budget-exhaustions" in
      let* s_peak_qubits = sx_int_field fields "peak-qubits" in
      let* s_peak_queue = sx_int_field fields "peak-queue" in
      let* s_retries = sx_int_field fields "retries" in
      let* s_util_integral = sx_float_field fields "util-integral" in
      let* s_last_time = sx_float_field fields "last-time" in
      let* s_makespan = sx_float_field fields "makespan" in
      let* s_faults_injected = sx_int_field fields "faults-injected" in
      let* s_faults_repaired = sx_int_field fields "faults-repaired" in
      let* s_leases_interrupted = sx_int_field fields "interrupted" in
      let* s_leases_recovered = sx_int_field fields "recovered" in
      let* s_leases_aborted = sx_int_field fields "aborted" in
      let* s_lost_service = sx_float_field fields "lost-service" in
      let* s_reconfig_applied = sx_int_field fields "reconfig-applied" in
      let* s_reconfig_recovered = sx_int_field fields "reconfig-recovered" in
      let* limiter = sx_assoc fields "limiter" in
      let* s_limiter =
        match limiter with
        | [] -> Ok None
        | [ tokens; last ] ->
            let* tokens = Sexp.to_float tokens in
            let* last = Sexp.to_float last in
            Ok (Some (tokens, last))
        | _ -> Error "malformed limiter state"
      in
      let* health = sx_assoc fields "health" in
      let* s_health =
        match health with
        | [] -> Ok None
        | hf ->
            let* h = health_of_fields hf in
            Ok (Some h)
      in
      let* tier = sx_assoc fields "tier" in
      let* s_tier =
        match tier with
        | [] -> Ok None
        | tf ->
            let* t = tier_of_fields tf in
            Ok (Some t)
      in
      let* policy = sx_assoc fields "policy" in
      let* s_policy =
        match policy with
        | [] -> Ok None
        | [ doc ] -> Ok (Some doc)
        | _ -> Error "malformed policy-state section"
      in
      let* metrics = sx_assoc fields "metrics" in
      let* s_metrics =
        match metrics with
        | [] -> Ok None
        | entries ->
            let* d = map_result dumped_of_sexp entries in
            Ok (Some d)
      in
      Ok
        {
          s_at; s_next_ckpt; s_arrivals; s_faults; s_reconfig; s_events;
          s_next_seq; s_states; s_queue;
          s_active; s_outcomes; s_next_lease; s_quota; s_residual;
          s_shed_total; s_gate_rejected; s_budget_exhaustions; s_peak_qubits;
          s_peak_queue; s_retries; s_util_integral; s_last_time; s_makespan;
          s_faults_injected; s_faults_repaired; s_leases_interrupted;
          s_leases_recovered; s_leases_aborted; s_lost_service;
          s_reconfig_applied; s_reconfig_recovered; s_limiter; s_health;
          s_tier; s_policy; s_metrics;
        }
  | Sexp.List (Sexp.Atom v :: _)
    when String.length v > 20 && String.sub v 0 20 = "muerp-engine-snapsho" ->
      Error
        (Printf.sprintf "unsupported snapshot version %s (this build reads %s)"
           v snapshot_version)
  | _ ->
      Error
        ("malformed snapshot document (expected (" ^ snapshot_version
       ^ " ...))")

(* ------------------------------------------------------------------ *)

let validate g requests =
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (r : Workload.request) ->
      if Hashtbl.mem ids r.Workload.id then
        invalid_arg "Engine.run: duplicate request id";
      Hashtbl.replace ids r.Workload.id ();
      if r.Workload.arrival < 0. || not (Float.is_finite r.Workload.arrival)
      then invalid_arg "Engine.run: bad arrival time";
      if r.Workload.duration <= 0. || not (Float.is_finite r.Workload.duration)
      then invalid_arg "Engine.run: duration must be positive";
      if r.Workload.deadline < r.Workload.arrival then
        invalid_arg "Engine.run: deadline before arrival";
      if List.length r.Workload.users < 2 then
        invalid_arg "Engine.run: request needs >= 2 users";
      if
        List.length (List.sort_uniq compare r.Workload.users)
        <> List.length r.Workload.users
      then invalid_arg "Engine.run: duplicate users in request";
      List.iter
        (fun u ->
          if not (Graph.is_user g u) then
            invalid_arg "Engine.run: request member is not a user")
        r.Workload.users)
    requests

(* Vertices strictly between a channel path's endpoints — the switches
   whose qubits the channel consumes (Capacity keeps the same helper
   private). *)
let interior_of_path = function
  | [] | [ _ ] -> []
  | _ :: rest ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: tl -> x :: drop_last tl
      in
      drop_last rest

let total_switch_qubits g =
  List.fold_left (fun acc s -> acc + Graph.qubits g s) 0 (Graph.switches g)

(* Nothing after [max (arrival, deadline) + duration] of any request can
   affect an outcome, so the fault schedule needs no more horizon. *)
let fault_horizon requests =
  List.fold_left
    (fun acc (r : Workload.request) ->
      Float.max acc
        (Float.max r.Workload.arrival r.Workload.deadline
        +. r.Workload.duration))
    0. requests

let validate_schedule g schedule =
  List.iter
    (fun (fe : Fsched.event) ->
      if Float.is_nan fe.time || fe.time < 0. then
        invalid_arg "Engine.run: fault event with bad timestamp";
      match fe.element with
      | Fsched.Link eid ->
          if eid < 0 || eid >= Graph.edge_count g then
            invalid_arg "Engine.run: fault event on unknown edge"
      | Fsched.Switch vid ->
          if vid < 0 || vid >= Graph.vertex_count g then
            invalid_arg "Engine.run: fault event on unknown vertex")
    schedule

let element_parts = function
  | Fsched.Link e -> (true, e)
  | Fsched.Switch v -> (false, v)

let run ?config:(cfg = config Policy.prim) ?faults ?fault_schedule ?on_incident
    ?on_health ?on_transition ?pool ?(slot = 0.) ?checkpoint ?(reconfig = [])
    ?restore_from g params ~requests =
  validate g requests;
  Option.iter (validate_schedule g) fault_schedule;
  if slot < 0. || not (Float.is_finite slot) then
    invalid_arg "Engine.run: slot must be finite and >= 0";
  (if (checkpoint <> None || restore_from <> None)
      && not cfg.policy.Policy.checkpoint_safe
   then
     invalid_arg
       (Printf.sprintf
          "Engine.run: policy %s keeps hidden mutable state and cannot be \
           checkpointed or restored"
          cfg.policy.Policy.name));
  (match checkpoint with
  | Some (every, _) ->
      if every <= 0. || not (Float.is_finite every) then
        invalid_arg "Engine.run: checkpoint interval must be positive"
  | None -> ());
  (match Reconfig.validate g reconfig with
  | Ok () -> ()
  | Error e -> invalid_arg ("Engine.run: " ^ e));
  (* Called from inside a parallel region (a policy or harness that is
     itself running on a pool), nested submission would raise deep in
     the loop: degrade to the serial path instead. *)
  let pool =
    match pool with
    | Some _ when Qnet_util.Pool.in_parallel_region () -> None
    | p -> p
  in
  let capacity = Capacity.of_graph g in
  let health =
    (* Reconfiguration rides on the same availability state as faults:
       an administrative leave excludes the element from routing exactly
       as a failure would, so recovery and cache invalidation behave
       identically for both. *)
    match (faults, fault_schedule) with
    | None, None -> if reconfig = [] then None else Some (Fhealth.create g)
    | _ -> Some (Fhealth.create g)
  in
  (match (health, on_health) with
  | Some h, Some f -> f h
  | _ -> ());
  let exclude =
    match health with
    | None -> Routing.no_exclusion
    | Some h -> Fhealth.exclusion h
  in
  (* The pre-scheduled sequences, read through cursors rather than
     pushed: arrivals in workload order (request i has seq i), then the
     sorted fault schedule, then reconfig events stably sorted by time —
     so at a shared instant the tie-break order is arrival < fault <
     admin change (operators act on the state faults produced).  The
     heap holds only what the run itself pushes: retries and expiries. *)
  let arrivals = Array.of_list requests in
  let fault_events =
    Array.of_list
      (match fault_schedule with
      | Some s -> List.sort Fsched.compare_event s
      | None -> (
          match faults with
          | None -> []
          | Some model ->
              Fsched.generate model g ~horizon:(fault_horizon requests)))
  in
  let reconf_events =
    Array.of_list
      (List.stable_sort
         (fun (a : Reconfig.event) b -> compare a.Reconfig.time b.Reconfig.time)
         reconfig)
  in
  let events : event Event_queue.t =
    Event_queue.create
      ~sources:
        [|
          Event_queue.source arrivals
            ~time:(fun (r : Workload.request) -> r.Workload.arrival)
            ~wrap:(fun r -> Arrival r);
          Event_queue.source fault_events
            ~time:(fun (fe : Fsched.event) -> fe.Fsched.time)
            ~wrap:(fun fe -> Fault fe);
          Event_queue.source reconf_events
            ~time:(fun (re : Reconfig.event) -> re.Reconfig.time)
            ~wrap:(fun re -> Reconf re);
        |]
      ()
  in
  (* (length, digest) of each scheduled sequence in seq order — what a
     snapshot records so a restore can prove it rebuilt the very
     sequences the snapshot's cursors index. *)
  let schedule_sigs =
    lazy
      (let mix h x = (h lxor x) * 0x100000001b3 in
       let mix_float h t =
         let b = Int64.bits_of_float t in
         mix
           (mix h (Int64.to_int b))
           (Int64.to_int (Int64.shift_right_logical b 32))
       in
       let sig_of items step =
         (Array.length items, Array.fold_left step (Array.length items) items)
       in
       [|
         sig_of arrivals (fun h (r : Workload.request) ->
             mix (mix_float h r.Workload.arrival) r.Workload.id);
         sig_of fault_events (fun h (fe : Fsched.event) ->
             let link, el = element_parts fe.Fsched.element in
             mix
               (mix (mix (mix_float h fe.Fsched.time) (Bool.to_int link)) el)
               (Bool.to_int fe.Fsched.up));
         sig_of reconf_events (fun h (re : Reconfig.event) ->
             let h = mix_float h re.Reconfig.time in
             match re.Reconfig.change with
             | Reconfig.Switch_leave v -> mix (mix h 0) v
             | Reconfig.Switch_join v -> mix (mix h 1) v
             | Reconfig.Link_remove e -> mix (mix h 2) e
             | Reconfig.Link_add e -> mix (mix h 3) e
             | Reconfig.Provision { switch; qubits } ->
                 mix (mix (mix h 4) switch) qubits);
       |])
  in
  (* Requests still in play: a request leaves once it is settled. *)
  let states : (int, req_state) Hashtbl.t = Hashtbl.create 64 in
  let active : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let limiter = Admission_ctl.limiter cfg.overload in
  (match cfg.overload.Admission_ctl.max_queue with
  | Some q -> Tm.Gauge.set_max g_queue_limit (float_of_int q)
  | None -> ());
  let fresh_budget () =
    Option.map (fun fuel -> Budget.create ~fuel) cfg.budget
  in
  let shed_total = ref 0 in
  let gate_rejected = ref 0 in
  let budget_exhaustions = ref 0 in
  let next_lease = ref 0 in
  let queue = ref [] in
  (* waiting request ids, FIFO (head = oldest) *)
  let outcomes = ref [] in
  let unresolved = ref (List.length requests) in
  let in_use = ref 0 in
  let peak_qubits = ref 0 in
  let peak_queue = ref 0 in
  let retries = ref 0 in
  let util_integral = ref 0. in
  let last_time = ref 0. in
  let makespan = ref 0. in
  let faults_injected = ref 0 in
  let faults_repaired = ref 0 in
  let leases_interrupted = ref 0 in
  let leases_recovered = ref 0 in
  let leases_aborted = ref 0 in
  let lost_service = ref 0. in
  let reconfig_applied = ref 0 in
  let reconfig_recovered = ref 0 in
  let emit tr =
    match on_transition with None -> () | Some f -> f tr
  in
  let resolve st resolution =
    st.waiting <- false;
    Hashtbl.remove states st.req.Workload.id;
    decr unresolved;
    outcomes := { request = st.req; resolution } :: !outcomes
  in
  (* One routing attempt for [st] at time [t]; on success the lease is
     registered and its expiry scheduled — resolution waits for the
     lease to complete (it may yet be interrupted by a fault). *)
  let inflight_full () =
    match cfg.overload.Admission_ctl.max_inflight with
    | None -> false
    | Some m ->
        let full = Hashtbl.length active >= m in
        if full then Tm.Counter.incr c_inflight_blocked;
        full
  in
  (* One policy invocation under the configured fuel budget; exhaustion
     counts as a failed attempt (capacity already rolled back by the
     solver layer), never as an engine error. *)
  let route_once users =
    match
      Qnet_telemetry.Span.with_span "online.route" (fun () ->
          cfg.policy.Policy.route ~exclude ~budget:(fresh_budget ()) g params
            ~capacity ~users)
    with
    | tree -> tree
    | exception Budget.Exhausted _ ->
        incr budget_exhaustions;
        Tm.Counter.incr c_budget_exhausted;
        None
  in
  let served_tier () =
    match cfg.tier_stats with
    | None -> -1
    | Some stats -> stats.Policy.last
  in
  (* [spec], when present, is a still-valid speculative solve for this
     request against a snapshot equal to the current live state: a
     non-tree verdict is reused as-is, a tree is admitted through
     [Lease.commit] (and, defensively, re-solved live if the commit is
     refused — unreachable while the validity check holds, but it keeps
     admission sound regardless). *)
  let try_serve ?spec t st =
    let r = st.req in
    st.attempts <- st.attempts + 1;
    if inflight_full () then false
    else
      let live_solve () =
        match route_once r.Workload.users with
        | None -> None
        | Some tree -> Some (tree, Lease.acquire tree)
      in
      let admitted =
        match spec with
        | None -> live_solve ()
        | Some (Spec_tree tree) -> (
            match Lease.commit capacity tree with
            | Some lease -> Some (tree, lease)
            | None -> live_solve ())
        | Some Spec_none -> None
        | Some Spec_exhausted ->
            incr budget_exhaustions;
            Tm.Counter.incr c_budget_exhausted;
            None
      in
      match admitted with
      | None -> false
      | Some (tree, lease) ->
          let lid = !next_lease in
          incr next_lease;
          Hashtbl.replace active lid
            {
              lid;
              st;
              lease;
              tree;
              started = t;
              finish = t +. r.Workload.duration;
              recoveries = 0;
              tier = served_tier ();
            };
          emit (T_admit { at = t; lid; request = r.Workload.id });
          Event_queue.push events (t +. r.Workload.duration) (Expiry lid);
          in_use := !in_use + Lease.qubits lease;
          peak_qubits := max !peak_qubits !in_use;
          st.waiting <- false;
          Tm.Histogram.observe h_wait (t -. r.Workload.arrival);
          true
  in
  let schedule_retry t st =
    let rt = min (t +. st.backoff) st.req.Workload.deadline in
    st.backoff <- min (2. *. st.backoff) cfg.retry_max;
    Event_queue.push events rt (Retry st.req.Workload.id)
  in
  let expire t st =
    Tm.Counter.incr c_expired;
    queue := List.filter (fun id -> id <> st.req.Workload.id) !queue;
    resolve st (Expired { at = t; attempts = st.attempts })
  in
  let shed t st reason =
    incr shed_total;
    Tm.Counter.incr c_shed;
    (match reason with
    | Rate_limit -> Tm.Counter.incr c_shed_rate
    | Queue_pressure -> Tm.Counter.incr c_shed_queue);
    queue := List.filter (fun id -> id <> st.req.Workload.id) !queue;
    resolve st (Shed { at = t; reason })
  in
  let victim_of t (st : req_state) =
    {
      Admission_ctl.id = st.req.Workload.id;
      group = List.length st.req.Workload.users;
      slack = st.req.Workload.deadline -. t;
    }
  in
  (* Queue-pressure shedding: with the depth limit hit, refuse the
     cheapest-to-refuse request among the waiters and the newcomer
     (largest group, then loosest deadline, then id).  Returns [true]
     when the newcomer survived and may be enqueued. *)
  let shed_for_room t (newcomer : req_state) =
    match cfg.overload.Admission_ctl.max_queue with
    | None -> true
    | Some limit ->
        if List.length !queue < limit then true
        else begin
          let candidates =
            victim_of t newcomer
            :: List.map (fun id -> victim_of t (Hashtbl.find states id)) !queue
          in
          match Admission_ctl.pick_victim candidates with
          | None -> true
          | Some v ->
              if v.Admission_ctl.id = newcomer.req.Workload.id then begin
                shed t newcomer Queue_pressure;
                false
              end
              else begin
                shed t (Hashtbl.find states v.Admission_ctl.id) Queue_pressure;
                true
              end
        end
  in
  let on_arrival ?spec t (r : Workload.request) =
    Tm.Counter.incr c_arrivals;
    let st =
      {
        req = r;
        attempts = 0;
        backoff = cfg.retry_base;
        waiting = false;
      }
    in
    Hashtbl.replace states r.Workload.id st;
    let over_rate =
      match limiter with
      | None -> false
      | Some lim -> not (Limiter.try_take lim ~now:t)
    in
    let gate_infeasible =
      (* Provable-infeasibility gate: a group the oracle condemns can
         never be served, so reject before any routing work (and before
         it can occupy queue space other requests could use). *)
      (not over_rate)
      &&
      match cfg.overload.Admission_ctl.infeasible with
      | Some oracle -> oracle r.Workload.users
      | None -> false
    in
    if over_rate then shed t st Rate_limit
    else if gate_infeasible then begin
      incr gate_rejected;
      Tm.Counter.incr c_gate_rejected;
      Tm.Counter.incr c_rejected;
      resolve st (Rejected { at = t; queue_full = false })
    end
    else if not (try_serve ?spec t st) then
      match cfg.admission with
      | Reject ->
          Tm.Counter.incr c_rejected;
          resolve st (Rejected { at = t; queue_full = false })
      | Queue bound ->
          if r.Workload.deadline <= t then expire t st
          else if not (shed_for_room t st) then ()
          else if List.length !queue >= bound then begin
            Tm.Counter.incr c_rejected;
            resolve st (Rejected { at = t; queue_full = true })
          end
          else begin
            st.waiting <- true;
            queue := !queue @ [ r.Workload.id ];
            peak_queue := max !peak_queue (List.length !queue);
            schedule_retry t st
          end
  in
  let on_retry ?spec t id =
    match Hashtbl.find_opt states id with
    | None -> () (* settled since it was scheduled; stale retry *)
    | Some st ->
        if st.waiting then
          if t >= st.req.Workload.deadline then
            (* Patience ran out while queued: settle as expired without
               a futile final routing attempt (the serve window is
               [arrival, deadline) once waiting). *)
            expire t st
          else begin
            incr retries;
            Tm.Counter.incr c_retries;
            if try_serve ?spec t st then
              queue := List.filter (fun i -> i <> id) !queue
            else schedule_retry t st
          end
  in
  (* Work conservation: whenever capacity or connectivity improves
     (lease expiry, fault abort, element repair), offer it to the
     longest-waiting requests first, without waiting out their backoff
     timers. *)
  let rescan_queue t =
    queue :=
      List.filter
        (fun id ->
          let st = Hashtbl.find states id in
          if st.req.Workload.deadline <= t then begin
            (* Lapsed while waiting for its own retry event; settle it
               now so the freed capacity is not offered to a request
               that has already abandoned. *)
            resolve st
              (Expired
                 { at = st.req.Workload.deadline; attempts = st.attempts });
            Tm.Counter.incr c_expired;
            false
          end
          else begin
            incr retries;
            Tm.Counter.incr c_retries;
            not (try_serve t st)
          end)
        !queue
  in
  let on_expiry t lid =
    match Hashtbl.find_opt active lid with
    | None -> () (* aborted mid-lease; stale expiry *)
    | Some a ->
        Hashtbl.remove active lid;
        in_use := !in_use - Lease.qubits a.lease;
        Lease.release capacity a.lease;
        emit (T_release { at = t; lid });
        let rate = Ent_tree.rate_prob a.tree in
        Tm.Counter.incr c_served;
        Tm.Histogram.observe h_rate rate;
        if a.tier > 0 then Tm.Counter.incr c_degraded;
        resolve a.st
          (Served
             {
               start = a.started;
               finish = t;
               tree = a.tree;
               rate;
               attempts = a.st.attempts;
               recoveries = a.recoveries;
               tier = a.tier;
             });
        rescan_queue t
  in
  let dead_path path = not (Routing.path_ok g exclude path) in
  let tree_dead (tree : Ent_tree.t) =
    List.exists
      (fun (c : Channel.t) -> dead_path c.Channel.path)
      tree.Ent_tree.channels
  in
  (* Channel-level repair: refund only the channels [dead] condemns,
     then find a replacement channel between the same endpoints over the
     residual graph minus the failed (or administratively drained)
     elements. *)
  let repair ~dead a =
    let live, dead_cs =
      List.partition
        (fun (c : Channel.t) -> not (dead c.Channel.path))
        a.tree.Ent_tree.channels
    in
    let remainder, _dead_paths = Lease.release_where capacity a.lease ~dead in
    let rec replace acc = function
      | [] -> Some (List.rev acc)
      | (c : Channel.t) :: rest -> (
          match
            Routing.best_channel ~exclude g params ~capacity ~src:c.src
              ~dst:c.dst
          with
          | Some (repl : Channel.t) ->
              Capacity.consume_channel capacity repl.Channel.path;
              replace (repl :: acc) rest
          | None ->
              List.iter
                (fun (r : Channel.t) ->
                  Capacity.release_channel capacity r.Channel.path)
                acc;
              None)
    in
    match replace [] dead_cs with
    | None ->
        Option.iter (fun rem -> Lease.release capacity rem) remainder;
        None
    | Some repls ->
        let tree' = Ent_tree.of_channels (live @ repls) in
        Verify.check_exn ~context:"fault repair" g params
          ~users:a.st.req.Workload.users tree';
        a.tree <- tree';
        a.lease <- Lease.acquire tree';
        Some tree'
  in
  let reroute a =
    Lease.release capacity a.lease;
    match
      cfg.policy.Policy.route ~exclude ~budget:(fresh_budget ()) g params
        ~capacity ~users:a.st.req.Workload.users
    with
    | exception Budget.Exhausted _ ->
        incr budget_exhaustions;
        Tm.Counter.incr c_budget_exhausted;
        None
    | None -> None
    | Some tree' ->
        Verify.check_exn ~context:"fault reroute" g params
          ~users:a.st.req.Workload.users tree';
        a.tree <- tree';
        a.lease <- Lease.acquire tree';
        a.tier <- served_tier ();
        Some tree'
  in
  (* [dead] condemns the channels the recovery must replace (defaults to
     the health exclusion); [admin] marks an operator-driven recovery so
     it lands in the reconfig counters rather than the fault ones. *)
  let recover ?(dead = dead_path) ?(admin = false) t element a =
    incr leases_interrupted;
    Tm.Counter.incr c_leases_interrupted;
    let before = a.tree in
    let t0 = Qnet_telemetry.Clock.now_s () in
    in_use := !in_use - Lease.qubits a.lease;
    let after =
      Qnet_telemetry.Span.with_span "online.recover" (fun () ->
          match cfg.recovery with
          | Abort ->
              Lease.release capacity a.lease;
              None
          | Repair -> repair ~dead a
          | Reroute -> reroute a)
    in
    (match after with
    | Some _ ->
        emit (T_recover { at = t; lid = a.lid });
        in_use := !in_use + Lease.qubits a.lease;
        peak_qubits := max !peak_qubits !in_use;
        a.recoveries <- a.recoveries + 1;
        incr leases_recovered;
        Tm.Counter.incr c_leases_recovered;
        if admin then begin
          incr reconfig_recovered;
          Tm.Counter.incr c_reconfig_recovered
        end;
        Tm.Histogram.observe h_recovery (Qnet_telemetry.Clock.elapsed_since t0)
    | None ->
        (* Abort-and-refund: the capacity is already back in the pool;
           the request ends here, with the unserved remainder of its
           lease recorded as lost service. *)
        emit (T_abort { at = t; lid = a.lid });
        incr leases_aborted;
        Tm.Counter.incr c_leases_aborted;
        lost_service := !lost_service +. Float.max 0. (a.finish -. t);
        Hashtbl.remove active a.lid;
        resolve a.st
          (Interrupted
             {
               start = a.started;
               at = t;
               attempts = a.st.attempts;
               recoveries = a.recoveries;
             }));
    match on_incident with
    | None -> ()
    | Some f ->
        f { at = t; request_id = a.st.req.Workload.id; element; before; after }
  in
  (* A fault transition invalidates every outstanding speculation even
     when no capacity moved: exclusion state steers routing, so a
     snapshot from before the transition no longer predicts what the
     live solve would return. *)
  let batch_dirty = ref false in
  let on_fault t (fe : Fsched.event) =
    match health with
    | None -> ()
    | Some h -> (
        match Fhealth.apply h fe with
        | Fhealth.No_change -> ()
        | Fhealth.Went_down ->
            batch_dirty := true;
            incr faults_injected;
            Tm.Counter.incr c_faults_injected;
            (let link, element = element_parts fe.Fsched.element in
             emit (T_fault { at = t; link; element; up = false }));
            (* Active trees are all healthy between fault events, so the
               dead ones now are exactly those crossing the failed
               element.  Lease-id order keeps multi-victim recovery
               deterministic. *)
            let affected =
              Hashtbl.fold
                (fun _ a acc -> if tree_dead a.tree then a :: acc else acc)
                active []
              |> List.sort (fun (x : active) y -> compare x.lid y.lid)
            in
            List.iter (recover t fe.element) affected;
            if affected <> [] then rescan_queue t
        | Fhealth.Came_up ->
            batch_dirty := true;
            incr faults_repaired;
            Tm.Counter.incr c_faults_repaired;
            (let link, element = element_parts fe.Fsched.element in
             emit (T_fault { at = t; link; element; up = true }));
            (* Connectivity improved: queued requests that were blocked
               by the failed element may route now. *)
            rescan_queue t)
  in
  (* Operator-driven topology changes, applied without draining traffic.
     Leaves and removals run through the same health transition as
     faults (recover affected leases, re-exclude the element); joins and
     additions re-admit it; a provision moves the switch's quota and —
     when shrunk below current usage — recovers just enough leases
     through the switch to fit the new budget, in lease-id order. *)
  let on_reconf t (re : Reconfig.event) =
    let admin_transition element up =
      match health with
      | None -> ()
      | Some h -> (
          match Fhealth.apply h { Fsched.time = t; element; up } with
          | Fhealth.No_change -> ()
          | Fhealth.Went_down ->
              batch_dirty := true;
              incr reconfig_applied;
              Tm.Counter.incr c_reconfig_applied;
              (let link, el = element_parts element in
               emit (T_reconfig { at = t; link; element = el; up = false }));
              let affected =
                Hashtbl.fold
                  (fun _ a acc -> if tree_dead a.tree then a :: acc else acc)
                  active []
                |> List.sort (fun (x : active) y -> compare x.lid y.lid)
              in
              List.iter (recover ~admin:true t element) affected;
              if affected <> [] then rescan_queue t
          | Fhealth.Came_up ->
              batch_dirty := true;
              incr reconfig_applied;
              Tm.Counter.incr c_reconfig_applied;
              (let link, el = element_parts element in
               emit (T_reconfig { at = t; link; element = el; up = true }));
              rescan_queue t)
    in
    match re.Reconfig.change with
    | Reconfig.Switch_leave v -> admin_transition (Fsched.Switch v) false
    | Reconfig.Switch_join v -> admin_transition (Fsched.Switch v) true
    | Reconfig.Link_remove e -> admin_transition (Fsched.Link e) false
    | Reconfig.Link_add e -> admin_transition (Fsched.Link e) true
    | Reconfig.Provision { switch = v; qubits = q } ->
        batch_dirty := true;
        incr reconfig_applied;
        Tm.Counter.incr c_reconfig_applied;
        emit (T_provision { at = t; switch = v; qubits = q });
        Capacity.provision capacity v q;
        (if Capacity.remaining capacity v < 0 then begin
           (* Shrunk below current usage: recover leases crossing the
              switch, oldest first, until the deficit clears.  Each
              recovery either replaces the crossing channels (the
              replacement cannot re-enter [v] — its residual is
              negative, so it cannot relay) or aborts and refunds, so
              the loop provably terminates with residual >= 0 once no
              crossing lease remains. *)
           let through path = List.mem v (interior_of_path path) in
           let crossing =
             Hashtbl.fold
               (fun _ a acc ->
                 if
                   List.exists
                     (fun (c : Channel.t) -> through c.Channel.path)
                     a.tree.Ent_tree.channels
                 then a :: acc
                 else acc)
               active []
             |> List.sort (fun (x : active) y -> compare x.lid y.lid)
           in
           List.iter
             (fun a ->
               if Capacity.remaining capacity v < 0 then
                 recover ~dead:through ~admin:true t (Fsched.Switch v) a)
             crossing
         end);
        rescan_queue t
  in
  (* Rebuild the complete engine state from a snapshot.  Trees are
     reconstructed channel-by-channel against this run's graph (which
     re-validates every path), their capacity re-consumed, and the
     recorded residuals cross-checked — a snapshot that disagrees with
     the graph or flags it is restored under fails loudly here rather
     than mis-accounting silently. *)
  let restore_state (snap : snapshot) =
    let fail msg = invalid_arg ("Engine.run: restore: " ^ msg) in
    let req_by_id = Hashtbl.create (max 16 (List.length requests)) in
    List.iter
      (fun (r : Workload.request) -> Hashtbl.replace req_by_id r.Workload.id r)
      requests;
    let req_of id =
      match Hashtbl.find_opt req_by_id id with
      | Some r -> r
      | None ->
          fail
            (Printf.sprintf
               "snapshot references request %d, absent from this workload \
                (restore must replay the original seed and flags)"
               id)
    in
    let tree_of_paths paths =
      let channels =
        List.map
          (fun path ->
            match Channel.make g params path with
            | Ok c -> c
            | Error reason ->
                fail ("snapshot channel invalid on this network: " ^ reason))
          paths
      in
      Ent_tree.of_channels channels
    in
    let des_event = function
      | SE_retry id -> Retry id
      | SE_expiry lid -> Expiry lid
    in
    let des_resolution = function
      | SR_served r ->
          Served
            {
              start = r.r_start;
              finish = r.r_finish;
              tree = tree_of_paths r.r_paths;
              rate = r.r_rate;
              attempts = r.r_attempts;
              recoveries = r.r_recoveries;
              tier = r.r_tier;
            }
      | SR_rejected r -> Rejected { at = r.r_at; queue_full = r.r_queue_full }
      | SR_shed r -> Shed { at = r.r_at; reason = r.r_reason }
      | SR_expired r -> Expired { at = r.r_at; attempts = r.r_attempts }
      | SR_interrupted r ->
          Interrupted
            {
              start = r.r_start;
              at = r.r_at;
              attempts = r.r_attempts;
              recoveries = r.r_recoveries;
            }
    in
    List.iter
      (fun (v, q) ->
        if v < 0 || v >= Graph.vertex_count g || not (Graph.is_switch g v)
        then fail "quota entry names a non-switch vertex";
        if q < 0 then fail "negative quota in snapshot";
        Capacity.provision capacity v q)
      snap.s_quota;
    List.iter
      (fun ss ->
        Hashtbl.replace states ss.ss_id
          {
            req = req_of ss.ss_id;
            attempts = ss.ss_attempts;
            backoff = ss.ss_backoff;
            waiting = ss.ss_waiting;
          })
      snap.s_states;
    List.iter
      (fun id ->
        if not (Hashtbl.mem states id) then
          fail "queued request id has no recorded state")
      snap.s_queue;
    queue := snap.s_queue;
    List.iter
      (fun sa ->
        let st =
          match Hashtbl.find_opt states sa.sa_id with
          | Some st -> st
          | None -> fail "active lease names an unknown request"
        in
        let tree = tree_of_paths sa.sa_paths in
        (try
           List.iter
             (fun (c : Channel.t) ->
               Capacity.consume_channel capacity c.Channel.path)
             tree.Ent_tree.channels
         with Invalid_argument _ ->
           fail "active leases exceed switch capacity (corrupt snapshot)");
        let lease = Lease.acquire tree in
        Hashtbl.replace active sa.sa_lid
          {
            lid = sa.sa_lid;
            st;
            lease;
            tree;
            started = sa.sa_started;
            finish = sa.sa_finish;
            recoveries = sa.sa_recoveries;
            tier = sa.sa_tier;
          };
        in_use := !in_use + Lease.qubits lease)
      snap.s_active;
    List.iter
      (fun v ->
        let expect =
          match List.assoc_opt v snap.s_residual with
          | Some r -> r
          | None -> Capacity.quota capacity v
        in
        if Capacity.remaining capacity v <> expect then
          fail
            "capacity residuals disagree with the snapshot (corrupt \
             snapshot, or a different network or flags)")
      (Graph.switches g);
    outcomes :=
      List.map
        (fun (id, res) -> { request = req_of id; resolution = des_resolution res })
        snap.s_outcomes;
    unresolved := List.length requests - List.length !outcomes;
    if !unresolved < 0 then
      fail "snapshot settles more requests than this workload contains";
    next_lease := snap.s_next_lease;
    shed_total := snap.s_shed_total;
    gate_rejected := snap.s_gate_rejected;
    budget_exhaustions := snap.s_budget_exhaustions;
    peak_qubits := snap.s_peak_qubits;
    peak_queue := snap.s_peak_queue;
    retries := snap.s_retries;
    util_integral := snap.s_util_integral;
    last_time := snap.s_last_time;
    makespan := snap.s_makespan;
    faults_injected := snap.s_faults_injected;
    faults_repaired := snap.s_faults_repaired;
    leases_interrupted := snap.s_leases_interrupted;
    leases_recovered := snap.s_leases_recovered;
    leases_aborted := snap.s_leases_aborted;
    lost_service := snap.s_lost_service;
    reconfig_applied := snap.s_reconfig_applied;
    reconfig_recovered := snap.s_reconfig_recovered;
    (match (snap.s_limiter, limiter) with
    | Some st, Some lim -> Limiter.restore lim st
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot carries rate-limiter state but this run has no rate \
           limit (flags differ)"
    | None, Some _ ->
        fail
          "this run has a rate limiter but the snapshot has none (flags \
           differ)");
    (match (snap.s_health, health) with
    | Some sh, Some h -> (
        try Fhealth.restore h sh with Invalid_argument m -> fail m)
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot tracks element health but this run has no faults or \
           reconfiguration configured (flags differ)"
    | None, Some _ ->
        fail
          "this run tracks element health but the snapshot has none (flags \
           differ)");
    let sigs = Lazy.force schedule_sigs in
    let check_schedule i what hint (c : s_cursor) =
      let len, digest = sigs.(i) in
      if c.sc_length <> len || c.sc_digest <> digest then
        fail
          (Printf.sprintf
             "the %s differs from the snapshot's (%d events here, %d in the \
              snapshot%s): %s"
             what len c.sc_length
             (if len = c.sc_length then ", same length, different contents"
              else "")
             hint);
      if c.sc_next < 0 || c.sc_next > len then
        fail (Printf.sprintf "the snapshot's %s cursor is out of range" what)
    in
    check_schedule 0 "arrival sequence"
      "restore must replay the original workload seed and flags"
      snap.s_arrivals;
    check_schedule 1 "fault schedule"
      "restore needs the same fault model and seed (or fault schedule)"
      snap.s_faults;
    check_schedule 2 "reconfiguration list"
      "restore needs the same reconfiguration events" snap.s_reconfig;
    if snap.s_arrivals.sc_next <> List.length !outcomes + Hashtbl.length states
    then
      fail
        "the snapshot's settled and unsettled requests do not add up to the \
         arrivals it has read (corrupt snapshot)";
    (match (snap.s_tier, cfg.tier_stats) with
    | Some st, Some (stats : Policy.tier_stats) ->
        let n = Array.length stats.Policy.names in
        if
          Array.length st.st_serves <> n
          || Array.length st.st_exhaustions <> n
          || Array.length st.st_verify_rejects <> n
          || Array.length st.st_breaker_skips <> n
          || Array.length st.st_breakers
             <> Array.length stats.Policy.breakers
        then fail "tiered-policy state has the wrong number of tiers";
        Array.blit st.st_serves 0 stats.Policy.serves 0 n;
        Array.blit st.st_exhaustions 0 stats.Policy.exhaustions 0 n;
        Array.blit st.st_verify_rejects 0 stats.Policy.verify_rejects 0 n;
        Array.blit st.st_breaker_skips 0 stats.Policy.breaker_skips 0 n;
        Array.iteri
          (fun i bs -> Breaker.restore stats.Policy.breakers.(i) bs)
          st.st_breakers;
        stats.Policy.last <- st.st_last
    | None, None -> ()
    | Some _, None ->
        fail "snapshot carries tiered-policy state but this run is untiered"
    | None, Some _ ->
        fail "this run is tiered but the snapshot has no tier state");
    (match (snap.s_policy, cfg.policy.Policy.state) with
    | Some doc, Some h -> (
        match h.Policy.load g params doc with
        | Ok () -> ()
        | Error m -> fail ("policy state: " ^ m))
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot carries policy state but this run's policy keeps none \
           (policies differ)"
    | None, Some _ ->
        fail
          "this run's policy keeps restorable state but the snapshot has \
           none (policies differ)");
    (match snap.s_metrics with
    | Some d when Tm.enabled () -> (
        try Tm.absorb d with Invalid_argument m -> fail m)
    | _ -> ());
    try
      Event_queue.load events ~next_seq:snap.s_next_seq
        ~cursor:
          [| snap.s_arrivals.sc_next; snap.s_faults.sc_next;
             snap.s_reconfig.sc_next |]
        (List.map (fun (t, seq, se) -> (t, seq, des_event se)) snap.s_events)
    with Invalid_argument m -> fail m
  in
  Option.iter restore_state restore_from;
  (* An event that can no longer change any outcome must not stretch the
     makespan or the utilization window.  A retry is stale once its
     request has settled or stopped waiting ([on_retry] ignores it). *)
  let inert = function
    | Fault _ | Reconf _ -> !unresolved = 0
    | Expiry lid -> not (Hashtbl.mem active lid)
    | Retry id -> (
        match Hashtbl.find_opt states id with
        | None -> true
        | Some st -> not st.waiting)
    | Arrival _ -> false
  in
  let dispatch ?spec t ev =
    if not (inert ev) then begin
      util_integral :=
        !util_integral +. ((t -. !last_time) *. float_of_int !in_use);
      last_time := t;
      makespan := max !makespan t;
      match ev with
      | Arrival r -> on_arrival ?spec t r
      | Retry id -> on_retry ?spec t id
      | Expiry lid -> on_expiry t lid
      | Fault fe -> on_fault t fe
      | Reconf re -> on_reconf t re
    end
  in
  (* Checkpoint cadence.  Snapshots are cut at drain-loop boundaries —
     between batches the state is exactly "everything before the next
     event", which is what a restore replays from.  A restored run
     resumes the original cadence (the snapshot records the next
     instant), so its own checkpoints land where the uninterrupted
     run's would. *)
  let next_ckpt =
    ref
      (match (checkpoint, restore_from) with
      | None, _ -> infinity
      | Some (every, _), None -> every
      | Some (every, _), Some snap ->
          if Float.is_finite snap.s_next_ckpt && snap.s_next_ckpt > snap.s_at
          then snap.s_next_ckpt
          else begin
            let c = ref every in
            while !c <= snap.s_at do
              c := !c +. every
            done;
            !c
          end)
  in
  let make_snapshot at =
    let paths_of (tree : Ent_tree.t) =
      List.map (fun (c : Channel.t) -> c.Channel.path) tree.Ent_tree.channels
    in
    let ser_event = function
      | Retry id -> SE_retry id
      | Expiry lid -> SE_expiry lid
      | Arrival _ | Fault _ | Reconf _ ->
          (* scheduled events are read from the cursors, never pushed *)
          assert false
    in
    let cursor = Event_queue.cursor events in
    let sigs = Lazy.force schedule_sigs in
    let sched i =
      let len, digest = sigs.(i) in
      { sc_next = cursor.(i); sc_length = len; sc_digest = digest }
    in
    let ser_resolution = function
      | Served { start; finish; tree; rate; attempts; recoveries; tier } ->
          SR_served
            {
              r_start = start;
              r_finish = finish;
              r_paths = paths_of tree;
              r_rate = rate;
              r_attempts = attempts;
              r_recoveries = recoveries;
              r_tier = tier;
            }
      | Rejected { at; queue_full } ->
          SR_rejected { r_at = at; r_queue_full = queue_full }
      | Shed { at; reason } -> SR_shed { r_at = at; r_reason = reason }
      | Expired { at; attempts } -> SR_expired { r_at = at; r_attempts = attempts }
      | Interrupted { start; at; attempts; recoveries } ->
          SR_interrupted
            {
              r_start = start;
              r_at = at;
              r_attempts = attempts;
              r_recoveries = recoveries;
            }
    in
    let sorted_by f l = List.sort (fun a b -> compare (f a) (f b)) l in
    {
      s_at = at;
      s_next_ckpt = !next_ckpt;
      s_arrivals = sched 0;
      s_faults = sched 1;
      s_reconfig = sched 2;
      s_events =
        List.map
          (fun (t, seq, ev) -> (t, seq, ser_event ev))
          (Event_queue.entries events);
      s_next_seq = Event_queue.next_seq events;
      s_states =
        Hashtbl.fold
          (fun id st acc ->
            {
              ss_id = id;
              ss_attempts = st.attempts;
              ss_backoff = st.backoff;
              ss_waiting = st.waiting;
            }
            :: acc)
          states []
        |> sorted_by (fun ss -> ss.ss_id);
      s_queue = !queue;
      s_active =
        Hashtbl.fold
          (fun _ a acc ->
            {
              sa_lid = a.lid;
              sa_id = a.st.req.Workload.id;
              sa_paths = paths_of a.tree;
              sa_started = a.started;
              sa_finish = a.finish;
              sa_recoveries = a.recoveries;
              sa_tier = a.tier;
            }
            :: acc)
          active []
        |> sorted_by (fun sa -> sa.sa_lid);
      s_outcomes =
        List.map
          (fun o -> (o.request.Workload.id, ser_resolution o.resolution))
          !outcomes;
      s_next_lease = !next_lease;
      s_quota =
        List.filter_map
          (fun v ->
            let q = Capacity.quota capacity v in
            if q <> Graph.qubits g v then Some (v, q) else None)
          (Graph.switches g);
      s_residual =
        List.filter_map
          (fun v ->
            let r = Capacity.remaining capacity v in
            if r <> Capacity.quota capacity v then Some (v, r) else None)
          (Graph.switches g);
      s_shed_total = !shed_total;
      s_gate_rejected = !gate_rejected;
      s_budget_exhaustions = !budget_exhaustions;
      s_peak_qubits = !peak_qubits;
      s_peak_queue = !peak_queue;
      s_retries = !retries;
      s_util_integral = !util_integral;
      s_last_time = !last_time;
      s_makespan = !makespan;
      s_faults_injected = !faults_injected;
      s_faults_repaired = !faults_repaired;
      s_leases_interrupted = !leases_interrupted;
      s_leases_recovered = !leases_recovered;
      s_leases_aborted = !leases_aborted;
      s_lost_service = !lost_service;
      s_reconfig_applied = !reconfig_applied;
      s_reconfig_recovered = !reconfig_recovered;
      s_limiter = Option.map Limiter.snapshot limiter;
      s_health = Option.map Fhealth.snapshot health;
      s_tier =
        Option.map
          (fun (stats : Policy.tier_stats) ->
            {
              st_serves = Array.copy stats.Policy.serves;
              st_exhaustions = Array.copy stats.Policy.exhaustions;
              st_verify_rejects = Array.copy stats.Policy.verify_rejects;
              st_breaker_skips = Array.copy stats.Policy.breaker_skips;
              st_breakers = Array.map Breaker.snapshot stats.Policy.breakers;
              st_last = stats.Policy.last;
            })
          cfg.tier_stats;
      s_policy =
        Option.map
          (fun (h : Policy.state_hooks) -> h.Policy.save ())
          cfg.policy.Policy.state;
      s_metrics = (if Tm.enabled () then Some (Tm.dump ()) else None);
    }
  in
  (* Speculation: solve every routable request of a drained batch
     concurrently against a zero-copy snapshot of the residual state.
     Each task gets its own [Capacity.overlay] view, so the live state
     is read-only for the whole parallel region; results keyed by
     request id, tagged with the capacity version they were solved
     under.  Which requests to solve is a prediction, not a commitment:
     a dry-run copy of the rate limiter skips arrivals the live limiter
     will shed, and retries are screened by their queue/deadline state
     at drain time — over- or under-speculation only wastes or forgoes
     work, never changes a result. *)
  let speculate batch =
    match pool with
    | Some p
      when cfg.policy.Policy.concurrent_safe && Qnet_util.Pool.jobs p > 1 -> (
        let lim = Option.map Limiter.copy limiter in
        let seen = Hashtbl.create 16 in
        let cands = ref [] in
        List.iter
          (fun (t, _, ev) ->
            match ev with
            | Arrival r ->
                let admitted =
                  match lim with
                  | None -> true
                  | Some l -> Limiter.try_take l ~now:t
                in
                if admitted && not (Hashtbl.mem seen r.Workload.id) then begin
                  Hashtbl.replace seen r.Workload.id ();
                  cands := (r.Workload.id, r.Workload.users) :: !cands
                end
            | Retry id -> (
                match Hashtbl.find_opt states id with
                | Some st
                  when st.waiting
                       && t < st.req.Workload.deadline
                       && not (Hashtbl.mem seen id) ->
                    Hashtbl.replace seen id ();
                    cands := (id, st.req.Workload.users) :: !cands
                | _ -> ())
            | Expiry _ | Fault _ | Reconf _ -> ())
          batch;
        let cands = Array.of_list (List.rev !cands) in
        if Array.length cands < 2 then None
        else begin
          let solve users () =
            match
              Qnet_telemetry.Span.with_span "online.route" (fun () ->
                  cfg.policy.Policy.route ~exclude ~budget:(fresh_budget ())
                    g params
                    ~capacity:(Capacity.overlay capacity)
                    ~users)
            with
            | Some tree -> Spec_tree tree
            | None -> Spec_none
            | exception Budget.Exhausted _ -> Spec_exhausted
          in
          let results =
            Qnet_util.Pool.map_thunks p
              (Array.map (fun (_, users) -> solve users) cands)
          in
          let specs = Hashtbl.create (Array.length cands) in
          Array.iteri
            (fun i r -> Hashtbl.replace specs (fst cands.(i)) r)
            results;
          Some (specs, Capacity.version capacity)
        end)
    | _ -> None
  in
  (* Commit: replay the drained batch in its exact (time, seq) order,
     merged with any events pushed while committing (their seqs are
     larger, so the comparison reproduces the serial pop order).  A
     speculation is honoured only while the live state still equals its
     snapshot — any capacity mutation or fault transition since then
     invalidates the whole batch's remaining specs, and those requests
     re-solve on the live residual exactly as the serial path would. *)
  let commit_batch specs batch =
    let spec_of ev =
      match specs with
      | None -> None
      | Some (tbl, snap_version) ->
          if !batch_dirty || Capacity.version capacity <> snap_version then
            None
          else (
            match ev with
            | Arrival r -> Hashtbl.find_opt tbl r.Workload.id
            | Retry id -> Hashtbl.find_opt tbl id
            | Expiry _ | Fault _ | Reconf _ -> None)
    in
    let rec go = function
      | [] -> ()
      | (bt, bseq, ev) :: rest as pending -> (
          match Event_queue.peek_key events with
          | Some (qt, qseq) when qt < bt || (qt = bt && qseq < bseq) ->
              (match Event_queue.pop events with
              | Some (t, ev') -> dispatch t ev'
              | None -> ());
              go pending
          | _ ->
              dispatch ?spec:(spec_of ev) bt ev;
              go rest)
    in
    go batch
  in
  let rec drain () =
    match Event_queue.peek_time events with
    | None -> ()
    | Some t0 ->
        (match checkpoint with
        | Some (every, sink) ->
            (* Emit every due checkpoint before touching the batch: the
               state right now is exactly "all events before [t0]
               processed", the boundary a restore resumes from. *)
            while !next_ckpt <= t0 do
              let c = !next_ckpt in
              next_ckpt := c +. every;
              sink c (make_snapshot c)
            done
        | None -> ());
        let upto = if slot > 0. then t0 +. slot else t0 in
        let batch = Event_queue.drain_until events ~upto in
        batch_dirty := false;
        commit_batch (speculate batch) batch;
        drain ()
  in
  drain ();
  (* Every lease has completed or been aborted; any residual consumption
     now is a refund bug, caught here rather than as silent
     over-capacity in the next run. *)
  List.iter
    (fun s ->
      if Capacity.used capacity s <> 0 then
        failwith "Engine.run: internal capacity leak (unreleased qubits)")
    (Graph.switches g);
  let outcomes =
    List.sort
      (fun a b -> compare a.request.Workload.id b.request.Workload.id)
      !outcomes
  in
  (* Watchdog pass: independently re-validate every tree that was put in
     service, including repaired and rerouted ones.  Read-only, so the
     optional pool parallelises it without affecting determinism. *)
  let served_trees =
    List.filter_map
      (fun o ->
        match o.resolution with
        | Served { tree; _ } -> Some (o.request.Workload.users, tree)
        | _ -> None)
      outcomes
    |> Array.of_list
  in
  let verify_one i =
    let users, tree = served_trees.(i) in
    Verify.check_exn ~context:"served tree" g params ~users tree
  in
  (match pool with
  | Some p ->
      Qnet_util.Pool.parallel_for p (Array.length served_trees) verify_one
  | None ->
      for i = 0 to Array.length served_trees - 1 do
        verify_one i
      done);
  let waits, rates =
    List.fold_left
      (fun (ws, rs) o ->
        match o.resolution with
        | Served { start; rate; _ } ->
            ((start -. o.request.Workload.arrival) :: ws, rate :: rs)
        | Rejected _ | Shed _ | Expired _ | Interrupted _ -> (ws, rs))
      ([], []) outcomes
  in
  let count pred = List.length (List.filter pred outcomes) in
  let served = List.length waits in
  let rejected =
    count (fun o -> match o.resolution with Rejected _ -> true | _ -> false)
  in
  let expired =
    count (fun o -> match o.resolution with Expired _ -> true | _ -> false)
  in
  let arrived = List.length requests in
  let mean = function
    | [] -> 0.
    | l -> Qnet_util.Stats.mean (Array.of_list l)
  in
  let p95 = function
    | [] -> 0.
    | l -> Qnet_util.Stats.percentile (Array.of_list l) 95.
  in
  let p99 = function
    | [] -> 0.
    | l -> Qnet_util.Stats.percentile (Array.of_list l) 99.
  in
  let degraded =
    count (fun o ->
        match o.resolution with Served { tier; _ } -> tier > 0 | _ -> false)
  in
  let tier_served =
    match cfg.tier_stats with
    | None -> []
    | Some stats ->
        let counts = Array.make (Array.length stats.Policy.names) 0 in
        List.iter
          (fun o ->
            match o.resolution with
            | Served { tier; _ }
              when tier >= 0 && tier < Array.length counts ->
                counts.(tier) <- counts.(tier) + 1
            | _ -> ())
          outcomes;
        Array.to_list
          (Array.mapi (fun i n -> (stats.Policy.names.(i), n)) counts)
  in
  let budget_exhaustions =
    !budget_exhaustions
    + (match cfg.tier_stats with
      | None -> 0
      | Some stats -> Array.fold_left ( + ) 0 stats.Policy.exhaustions)
  in
  let breaker_opens =
    match cfg.tier_stats with
    | None -> 0
    | Some stats ->
        Array.fold_left
          (fun acc b -> acc + Breaker.opens b)
          0 stats.Policy.breakers
  in
  let budget = total_switch_qubits g in
  let mean_utilization =
    if !makespan > 0. && budget > 0 then
      !util_integral /. (!makespan *. float_of_int budget)
    else 0.
  in
  Tm.Gauge.set_max g_peak_qubits (float_of_int !peak_qubits);
  Tm.Gauge.set_max g_peak_queue (float_of_int !peak_queue);
  Tm.Gauge.set g_utilization mean_utilization;
  ( {
      arrived;
      served;
      rejected;
      expired;
      acceptance_ratio =
        (if arrived = 0 then 0.
         else float_of_int served /. float_of_int arrived);
      mean_wait = mean waits;
      p95_wait = p95 waits;
      mean_rate = mean rates;
      throughput =
        (if !makespan > 0. then float_of_int served /. !makespan else 0.);
      makespan = !makespan;
      peak_qubits_in_use = !peak_qubits;
      peak_queue_depth = !peak_queue;
      retries = !retries;
      mean_utilization;
      faults_injected = !faults_injected;
      faults_repaired = !faults_repaired;
      leases_interrupted = !leases_interrupted;
      leases_recovered = !leases_recovered;
      leases_aborted = !leases_aborted;
      mean_time_to_repair =
        (match health with None -> 0. | Some h -> Fhealth.observed_mttr h);
      mean_lost_service =
        (if !leases_aborted = 0 then 0.
         else !lost_service /. float_of_int !leases_aborted);
      shed = !shed_total;
      gate_rejected = !gate_rejected;
      degraded;
      tier_served;
      budget_exhaustions;
      breaker_opens;
      p99_wait = p99 waits;
      reconfig_applied = !reconfig_applied;
      reconfig_recovered = !reconfig_recovered;
    },
    outcomes )

let report_table r =
  let t = Qnet_util.Table.create [ "metric"; "value" ] in
  let int name v = (name, string_of_int v) in
  let flt name v = (name, Qnet_util.Table.float_cell v) in
  List.fold_left
    (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
    t
    [
      int "arrived" r.arrived;
      int "served" r.served;
      int "rejected" r.rejected;
      int "expired" r.expired;
      flt "acceptance_ratio" r.acceptance_ratio;
      flt "mean_wait" r.mean_wait;
      flt "p95_wait" r.p95_wait;
      flt "mean_rate" r.mean_rate;
      flt "throughput" r.throughput;
      flt "makespan" r.makespan;
      int "peak_qubits_in_use" r.peak_qubits_in_use;
      int "peak_queue_depth" r.peak_queue_depth;
      int "retries" r.retries;
      flt "mean_utilization" r.mean_utilization;
      int "faults_injected" r.faults_injected;
      int "faults_repaired" r.faults_repaired;
      int "leases_interrupted" r.leases_interrupted;
      int "leases_recovered" r.leases_recovered;
      int "leases_aborted" r.leases_aborted;
      flt "mean_time_to_repair" r.mean_time_to_repair;
      flt "mean_lost_service" r.mean_lost_service;
    ]
  |> fun t ->
  (* Overload rows appear only when overload control did something, so
     a limits-disabled run prints the exact PR-4 era table. *)
  (if
     r.shed = 0 && r.degraded = 0 && r.budget_exhaustions = 0
     && r.breaker_opens = 0 && r.gate_rejected = 0
     && r.tier_served = []
   then t
   else
     List.fold_left
       (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
       t
       ([
          int "shed" r.shed;
          int "gate_rejected" r.gate_rejected;
          int "degraded" r.degraded;
          int "budget_exhaustions" r.budget_exhaustions;
          int "breaker_opens" r.breaker_opens;
          flt "p99_wait" r.p99_wait;
        ]
       @ List.map
           (fun (name, n) -> int ("tier_served:" ^ name) n)
           r.tier_served))
  |> fun t ->
  (* Reconfiguration rows likewise appear only when an admin change was
     applied, keeping reconfig-free tables byte-identical to PR-8. *)
  if r.reconfig_applied = 0 && r.reconfig_recovered = 0 then t
  else
    List.fold_left
      (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
      t
      [
        int "reconfig_applied" r.reconfig_applied;
        int "reconfig_recovered" r.reconfig_recovered;
      ]
