module Sexp = Qnet_util.Sexp
module Engine = Qnet_online.Engine
module Tm = Qnet_telemetry.Metrics
module Wire = Qnet_telemetry.Wire

(* Incremental checkpoint payloads: the field-by-field difference
   between two consecutive engine snapshots.

   Between 10-second cuts most of a snapshot is unchanged — the pending
   retries and expiries churn a handful of entries, a few requests
   arrive or settle, a few leases start or end, the metrics registry
   moves a few counters — while the bulky sections (settled outcomes,
   histogram buckets) only grow or stay put.  The delta keys each
   collection section by its natural identity and records removals +
   upserts; the ~20 scalar counters and the three schedule cursors are
   carried raw every time (they cost a line, not a section); and the
   metrics registry ships as a compact hex-armoured binary diff
   (Qnet_telemetry.Wire) because its sexp rendering dominates the file.

   The invariant [apply ~base (diff ~base snap) = snap] is structural
   equality over the whole snapshot record, property-tested against
   real engine runs.  Apply never trusts the delta blindly: a removal
   of a missing key, an outcome prefix that does not extend the base,
   or a corrupt metrics payload all surface as [Error] — which the
   chain walk treats exactly like a failed checksum (skip the poisoned
   suffix). *)

(* A wholesale-when-changed section. *)
type 'a refresh = Unchanged | Set of 'a

type metrics_delta =
  | M_unchanged
  | M_set of (string * Tm.dumped) list option
      (* presence changed (or base unavailable): carry the section whole *)
  | M_diff of string list * (string * Tm.dumped) list
      (* removed names + upserted entries, both sorted by name *)

type t = {
  d_at : float;
  d_next_ckpt : float;
  d_next_seq : int;
  d_next_lease : int;
  d_arrivals : Engine.s_cursor;
  d_faults : Engine.s_cursor;
  d_reconfig : Engine.s_cursor;
  d_scalars : float array;
      (* every scalar counter, raw, in the fixed order of [scalar_order] *)
  d_events_removed : (float * int) list;  (* (time, seq) keys *)
  d_events_added : (float * int * Engine.s_event) list;
  d_states_removed : int list;  (* request ids settled since the base *)
  d_states : Engine.s_state list;  (* upserts by ss_id *)
  d_queue : int list refresh;  (* order matters: whole when changed *)
  d_active_removed : int list;  (* lease ids *)
  d_active : Engine.s_active list;  (* upserts by sa_lid *)
  d_outcomes_new : (int * Engine.s_resolution) list;
      (* outcomes accrue newest-first: the new prefix *)
  d_quota_removed : int list;
  d_quota : (int * int) list;
  d_residual_removed : int list;
  d_residual : (int * int) list;
  d_limiter : (float * float) option refresh;
  d_health : Qnet_faults.Health.snapshot option refresh;
  d_tier : Engine.s_tier option refresh;
  d_policy : Sexp.t option refresh;
  d_metrics : metrics_delta;
}

let version = "muerp-snapshot-delta/2"

(* --- diff ---------------------------------------------------------- *)

let scalars_of (s : Engine.snapshot) =
  [|
    float_of_int s.Engine.s_shed_total;
    float_of_int s.Engine.s_gate_rejected;
    float_of_int s.Engine.s_budget_exhaustions;
    float_of_int s.Engine.s_peak_qubits;
    float_of_int s.Engine.s_peak_queue;
    float_of_int s.Engine.s_retries;
    s.Engine.s_util_integral;
    s.Engine.s_last_time;
    s.Engine.s_makespan;
    float_of_int s.Engine.s_faults_injected;
    float_of_int s.Engine.s_faults_repaired;
    float_of_int s.Engine.s_leases_interrupted;
    float_of_int s.Engine.s_leases_recovered;
    float_of_int s.Engine.s_leases_aborted;
    s.Engine.s_lost_service;
    float_of_int s.Engine.s_reconfig_applied;
    float_of_int s.Engine.s_reconfig_recovered;
  |]

let scalar_count = 17

(* Keyed removed/upserts diff over two sorted association lists. *)
let diff_sorted ~key ~eq base next =
  let rec go b n removed upserts =
    match (b, n) with
    | [], [] -> (List.rev removed, List.rev upserts)
    | x :: tb, [] -> go tb [] (key x :: removed) upserts
    | [], y :: tn -> go [] tn removed (y :: upserts)
    | x :: tb, y :: tn ->
        let kx = key x and ky = key y in
        if kx = ky then
          if eq x y then go tb tn removed upserts
          else go tb tn removed (y :: upserts)
        else if kx < ky then go tb n (kx :: removed) upserts
        else go b tn removed (y :: upserts)
  in
  go base next [] []

let refresh_of base next = if base = next then Unchanged else Set next

let diff ~(base : Engine.snapshot) (next : Engine.snapshot) =
  let events_removed, events_added =
    diff_sorted
      ~key:(fun (t, seq, _) -> (t, seq))
      ~eq:(fun a b -> a = b)
      base.Engine.s_events next.Engine.s_events
  in
  let states_removed, states =
    diff_sorted
      ~key:(fun ss -> ss.Engine.ss_id)
      ~eq:(fun a b -> a = b)
      base.Engine.s_states next.Engine.s_states
  in
  let active_removed, active =
    diff_sorted
      ~key:(fun sa -> sa.Engine.sa_lid)
      ~eq:(fun a b -> a = b)
      base.Engine.s_active next.Engine.s_active
  in
  let outcomes_new =
    (* outcomes only accrue by prepending; the suffix must be the
       base's list, so the delta is the fresh prefix *)
    let nb = List.length base.Engine.s_outcomes
    and nn = List.length next.Engine.s_outcomes in
    if nn < nb then
      invalid_arg "Delta.diff: outcome list shrank between snapshots"
    else begin
      let rec split k l acc =
        if k = 0 then (List.rev acc, l)
        else
          match l with
          | [] -> invalid_arg "Delta.diff: outcome accounting mismatch"
          | x :: tl -> split (k - 1) tl (x :: acc)
      in
      let prefix, suffix = split (nn - nb) next.Engine.s_outcomes [] in
      if suffix <> base.Engine.s_outcomes then
        invalid_arg
          "Delta.diff: settled outcomes changed in place (engine invariant \
           violated)";
      prefix
    end
  in
  let quota_removed, quota =
    diff_sorted ~key:fst ~eq:( = ) base.Engine.s_quota next.Engine.s_quota
  in
  let residual_removed, residual =
    diff_sorted ~key:fst ~eq:( = ) base.Engine.s_residual
      next.Engine.s_residual
  in
  let d_metrics =
    match (base.Engine.s_metrics, next.Engine.s_metrics) with
    | None, None -> M_unchanged
    | Some b, Some n ->
        if b = n then M_unchanged
        else
          let removed, upserts =
            diff_sorted ~key:fst ~eq:( = ) b n
          in
          M_diff (removed, upserts)
    | _, n -> M_set n
  in
  {
    d_at = next.Engine.s_at;
    d_next_ckpt = next.Engine.s_next_ckpt;
    d_next_seq = next.Engine.s_next_seq;
    d_next_lease = next.Engine.s_next_lease;
    d_arrivals = next.Engine.s_arrivals;
    d_faults = next.Engine.s_faults;
    d_reconfig = next.Engine.s_reconfig;
    d_scalars = scalars_of next;
    d_events_removed = events_removed;
    d_events_added = events_added;
    d_states_removed = states_removed;
    d_states = states;
    d_queue = refresh_of base.Engine.s_queue next.Engine.s_queue;
    d_active_removed = active_removed;
    d_active = active;
    d_outcomes_new = outcomes_new;
    d_quota_removed = quota_removed;
    d_quota = quota;
    d_residual_removed = residual_removed;
    d_residual = residual;
    d_limiter = refresh_of base.Engine.s_limiter next.Engine.s_limiter;
    d_health = refresh_of base.Engine.s_health next.Engine.s_health;
    d_tier = refresh_of base.Engine.s_tier next.Engine.s_tier;
    d_policy = refresh_of base.Engine.s_policy next.Engine.s_policy;
    d_metrics;
  }

(* --- apply --------------------------------------------------------- *)

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Apply removals + upserts to a sorted association list, keeping it
   sorted; a removal that hits nothing means the delta does not belong
   to this base. *)
let apply_sorted ~key ~what removed upserts base =
  let removed_tbl = Hashtbl.create (max 4 (List.length removed)) in
  List.iter (fun k -> Hashtbl.replace removed_tbl k false) removed;
  let upsert_tbl = Hashtbl.create (max 4 (List.length upserts)) in
  List.iter (fun x -> Hashtbl.replace upsert_tbl (key x) x) upserts;
  let kept =
    List.filter
      (fun x ->
        let k = key x in
        if Hashtbl.mem removed_tbl k then begin
          Hashtbl.replace removed_tbl k true;
          false
        end
        else not (Hashtbl.mem upsert_tbl k))
      base
  in
  let missed = Hashtbl.fold (fun _ hit acc -> acc || not hit) removed_tbl false in
  if missed then err "delta removes a %s entry the base does not have" what
  else
    Ok
      (List.sort
         (fun a b -> compare (key a) (key b))
         (kept @ upserts))

let apply_refresh base = function Unchanged -> base | Set v -> v

let apply ~(base : Engine.snapshot) (d : t) =
  let* s_events =
    apply_sorted
      ~key:(fun (t, seq, _) -> (t, seq))
      ~what:"pending-event" d.d_events_removed d.d_events_added
      base.Engine.s_events
  in
  let* s_states =
    apply_sorted
      ~key:(fun ss -> ss.Engine.ss_id)
      ~what:"request-state" d.d_states_removed d.d_states
      base.Engine.s_states
  in
  let* s_active =
    apply_sorted
      ~key:(fun sa -> sa.Engine.sa_lid)
      ~what:"active-lease" d.d_active_removed d.d_active
      base.Engine.s_active
  in
  let* s_quota =
    apply_sorted ~key:fst ~what:"quota" d.d_quota_removed d.d_quota
      base.Engine.s_quota
  in
  let* s_residual =
    apply_sorted ~key:fst ~what:"residual" d.d_residual_removed d.d_residual
      base.Engine.s_residual
  in
  let* s_metrics =
    match d.d_metrics with
    | M_unchanged -> Ok base.Engine.s_metrics
    | M_set m -> Ok m
    | M_diff (removed, upserts) -> (
        match base.Engine.s_metrics with
        | None -> err "delta carries a metrics diff but the base has none"
        | Some b ->
            let* merged =
              apply_sorted ~key:fst ~what:"metrics" removed upserts b
            in
            Ok (Some merged))
  in
  if Array.length d.d_scalars <> scalar_count then
    err "delta carries %d scalars, expected %d" (Array.length d.d_scalars)
      scalar_count
  else
    let sc i = d.d_scalars.(i) in
    let sci i = int_of_float d.d_scalars.(i) in
    Ok
      {
        Engine.s_at = d.d_at;
        s_next_ckpt = d.d_next_ckpt;
        s_next_seq = d.d_next_seq;
        s_next_lease = d.d_next_lease;
        s_arrivals = d.d_arrivals;
        s_faults = d.d_faults;
        s_reconfig = d.d_reconfig;
        s_events;
        s_states;
        s_queue = apply_refresh base.Engine.s_queue d.d_queue;
        s_active;
        s_outcomes = d.d_outcomes_new @ base.Engine.s_outcomes;
        s_quota;
        s_residual;
        s_shed_total = sci 0;
        s_gate_rejected = sci 1;
        s_budget_exhaustions = sci 2;
        s_peak_qubits = sci 3;
        s_peak_queue = sci 4;
        s_retries = sci 5;
        s_util_integral = sc 6;
        s_last_time = sc 7;
        s_makespan = sc 8;
        s_faults_injected = sci 9;
        s_faults_repaired = sci 10;
        s_leases_interrupted = sci 11;
        s_leases_recovered = sci 12;
        s_leases_aborted = sci 13;
        s_lost_service = sc 14;
        s_reconfig_applied = sci 15;
        s_reconfig_recovered = sci 16;
        s_limiter = apply_refresh base.Engine.s_limiter d.d_limiter;
        s_health = apply_refresh base.Engine.s_health d.d_health;
        s_tier = apply_refresh base.Engine.s_tier d.d_tier;
        s_policy = apply_refresh base.Engine.s_policy d.d_policy;
        s_metrics;
      }

(* --- sexp codec ---------------------------------------------------- *)

let fld name elts = Sexp.list (Sexp.atom name :: elts)

let refresh_to_sexp name to_elts = function
  | Unchanged -> fld name [ Sexp.atom "unchanged" ]
  | Set v -> fld name (Sexp.atom "set" :: to_elts v)

let opt_to_elts f = function None -> [] | Some v -> [ f v ]

let metrics_entries entries =
  List.map Engine.dumped_to_sexp entries

let to_sexp (d : t) =
  Sexp.list
    [
      Sexp.atom version;
      fld "at" [ Sexp.float d.d_at ];
      fld "next-ckpt" [ Sexp.float d.d_next_ckpt ];
      fld "next-seq" [ Sexp.int d.d_next_seq ];
      fld "next-lease" [ Sexp.int d.d_next_lease ];
      fld "arrivals" [ Engine.s_cursor_to_sexp d.d_arrivals ];
      fld "faults" [ Engine.s_cursor_to_sexp d.d_faults ];
      fld "reconfig" [ Engine.s_cursor_to_sexp d.d_reconfig ];
      fld "scalars" (List.map Sexp.float (Array.to_list d.d_scalars));
      fld "events-removed"
        (List.map
           (fun (t, seq) -> Sexp.list [ Sexp.float t; Sexp.int seq ])
           d.d_events_removed);
      fld "events-added"
        (List.map
           (fun (t, seq, ev) ->
             Sexp.list
               [ Sexp.float t; Sexp.int seq; Engine.s_event_to_sexp ev ])
           d.d_events_added);
      fld "states-removed" (List.map Sexp.int d.d_states_removed);
      fld "states" (List.map Engine.s_state_to_sexp d.d_states);
      refresh_to_sexp "queue" (List.map Sexp.int) d.d_queue;
      fld "active-removed" (List.map Sexp.int d.d_active_removed);
      fld "active" (List.map Engine.s_active_to_sexp d.d_active);
      fld "outcomes-new"
        (List.map
           (fun (id, res) ->
             Sexp.list [ Sexp.int id; Engine.s_resolution_to_sexp res ])
           d.d_outcomes_new);
      fld "quota-removed" (List.map Sexp.int d.d_quota_removed);
      fld "quota"
        (List.map
           (fun (a, b) -> Sexp.list [ Sexp.int a; Sexp.int b ])
           d.d_quota);
      fld "residual-removed" (List.map Sexp.int d.d_residual_removed);
      fld "residual"
        (List.map
           (fun (a, b) -> Sexp.list [ Sexp.int a; Sexp.int b ])
           d.d_residual);
      refresh_to_sexp "limiter"
        (opt_to_elts (fun (tokens, last) ->
             Sexp.list [ Sexp.float tokens; Sexp.float last ]))
        d.d_limiter;
      refresh_to_sexp "health" (opt_to_elts Engine.health_to_sexp) d.d_health;
      refresh_to_sexp "tier" (opt_to_elts Engine.tier_to_sexp) d.d_tier;
      refresh_to_sexp "policy" (opt_to_elts Fun.id) d.d_policy;
      (match d.d_metrics with
      | M_unchanged -> fld "metrics" [ Sexp.atom "unchanged" ]
      | M_set None -> fld "metrics" [ Sexp.atom "none" ]
      | M_set (Some entries) ->
          fld "metrics" (Sexp.atom "set" :: metrics_entries entries)
      | M_diff (removed, upserts) ->
          (* The registry diff is the bulk of a typical delta: ship it
             as the compact binary codec, hex-armoured to stay inside
             the line-oriented file format. *)
          fld "metrics"
            [
              Sexp.atom "diff";
              Sexp.atom
                (Wire.to_hex (Wire.encode_metrics_diff ~removed ~upserts));
            ]);
    ]

(* parsing *)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let sx_assoc fields name =
  let rec find = function
    | [] -> err "delta: missing field %s" name
    | Sexp.List (Sexp.Atom n :: rest) :: _ when n = name -> Ok rest
    | _ :: tl -> find tl
  in
  find fields

let sx_field1 fields name =
  let* l = sx_assoc fields name in
  match l with
  | [ x ] -> Ok x
  | _ -> err "delta: field %s expects one value" name

let refresh_of_sexp fields name of_elts =
  let* l = sx_assoc fields name in
  match l with
  | [ Sexp.Atom "unchanged" ] -> Ok Unchanged
  | Sexp.Atom "set" :: rest ->
      let* v = of_elts rest in
      Ok (Set v)
  | _ -> err "delta: malformed %s section" name

let opt_of_elts f = function
  | [] -> Ok None
  | [ x ] ->
      let* v = f x in
      Ok (Some v)
  | _ -> Error "expected at most one value"

let of_sexp doc =
  match doc with
  | Sexp.List (Sexp.Atom v :: fields) when v = version ->
      let* at = sx_field1 fields "at" in
      let* d_at = Sexp.to_float at in
      let* nc = sx_field1 fields "next-ckpt" in
      let* d_next_ckpt = Sexp.to_float nc in
      let* ns = sx_field1 fields "next-seq" in
      let* d_next_seq = Sexp.to_int ns in
      let* nl = sx_field1 fields "next-lease" in
      let* d_next_lease = Sexp.to_int nl in
      let* scalars = sx_assoc fields "scalars" in
      let* scalars = map_result Sexp.to_float scalars in
      let d_scalars = Array.of_list scalars in
      let* a = sx_field1 fields "arrivals" in
      let* d_arrivals = Engine.s_cursor_of_sexp a in
      let* f = sx_field1 fields "faults" in
      let* d_faults = Engine.s_cursor_of_sexp f in
      let* r = sx_field1 fields "reconfig" in
      let* d_reconfig = Engine.s_cursor_of_sexp r in
      let* er = sx_assoc fields "events-removed" in
      let* d_events_removed =
        map_result
          (function
            | Sexp.List [ t; seq ] ->
                let* t = Sexp.to_float t in
                let* seq = Sexp.to_int seq in
                Ok (t, seq)
            | _ -> Error "malformed removed-event key")
          er
      in
      let* ea = sx_assoc fields "events-added" in
      let* d_events_added =
        map_result
          (function
            | Sexp.List [ t; seq; ev ] ->
                let* t = Sexp.to_float t in
                let* seq = Sexp.to_int seq in
                let* ev = Engine.s_event_of_sexp ev in
                Ok (t, seq, ev)
            | _ -> Error "malformed added-event entry")
          ea
      in
      let* sr = sx_assoc fields "states-removed" in
      let* d_states_removed = map_result Sexp.to_int sr in
      let* states = sx_assoc fields "states" in
      let* d_states = map_result Engine.s_state_of_sexp states in
      let* d_queue = refresh_of_sexp fields "queue" (map_result Sexp.to_int) in
      let* ar = sx_assoc fields "active-removed" in
      let* d_active_removed = map_result Sexp.to_int ar in
      let* active = sx_assoc fields "active" in
      let* d_active = map_result Engine.s_active_of_sexp active in
      let* outcomes = sx_assoc fields "outcomes-new" in
      let* d_outcomes_new =
        map_result
          (function
            | Sexp.List [ id; res ] ->
                let* id = Sexp.to_int id in
                let* res = Engine.s_resolution_of_sexp res in
                Ok (id, res)
            | _ -> Error "malformed outcome entry")
          outcomes
      in
      let pair = function
        | Sexp.List [ a; b ] ->
            let* a = Sexp.to_int a in
            let* b = Sexp.to_int b in
            Ok (a, b)
        | _ -> Error "expected an (int int) pair"
      in
      let* qr = sx_assoc fields "quota-removed" in
      let* d_quota_removed = map_result Sexp.to_int qr in
      let* quota = sx_assoc fields "quota" in
      let* d_quota = map_result pair quota in
      let* rr = sx_assoc fields "residual-removed" in
      let* d_residual_removed = map_result Sexp.to_int rr in
      let* residual = sx_assoc fields "residual" in
      let* d_residual = map_result pair residual in
      let* d_limiter =
        refresh_of_sexp fields "limiter"
          (opt_of_elts (function
            | Sexp.List [ tokens; last ] ->
                let* tokens = Sexp.to_float tokens in
                let* last = Sexp.to_float last in
                Ok (tokens, last)
            | _ -> Error "malformed limiter value"))
      in
      let* d_health =
        refresh_of_sexp fields "health" (opt_of_elts Engine.health_of_sexp)
      in
      let* d_tier =
        refresh_of_sexp fields "tier" (opt_of_elts Engine.tier_of_sexp)
      in
      let* d_policy =
        refresh_of_sexp fields "policy" (opt_of_elts (fun doc -> Ok doc))
      in
      let* metrics = sx_assoc fields "metrics" in
      let* d_metrics =
        match metrics with
        | [ Sexp.Atom "unchanged" ] -> Ok M_unchanged
        | [ Sexp.Atom "none" ] -> Ok (M_set None)
        | Sexp.Atom "set" :: entries ->
            let* entries = map_result Engine.dumped_of_sexp entries in
            Ok (M_set (Some entries))
        | [ Sexp.Atom "diff"; Sexp.Atom hex ] ->
            let* payload = Wire.of_hex hex in
            let* removed, upserts = Wire.decode_metrics_diff payload in
            Ok (M_diff (removed, upserts))
        | _ -> Error "delta: malformed metrics section"
      in
      Ok
        {
          d_at;
          d_next_ckpt;
          d_next_seq;
          d_next_lease;
          d_arrivals;
          d_faults;
          d_reconfig;
          d_scalars;
          d_events_removed;
          d_events_added;
          d_states_removed;
          d_states;
          d_queue;
          d_active_removed;
          d_active;
          d_outcomes_new;
          d_quota_removed;
          d_quota;
          d_residual_removed;
          d_residual;
          d_limiter;
          d_health;
          d_tier;
          d_policy;
          d_metrics;
        }
  | Sexp.List (Sexp.Atom v :: _)
    when String.length v > 19 && String.sub v 0 19 = "muerp-snapshot-delt" ->
      err "unsupported delta version %s (this build reads %s)" v version
  | _ -> err "malformed delta document (expected (%s ...))" version
