(* Unit and property tests for qnet_online — the dynamic traffic engine:
   event-queue ordering, workload determinism, admission / queue /
   expiry semantics, policy adapters and cache, and the central safety
   property that concurrent leases never oversubscribe a switch. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Event_queue = Qnet_online.Event_queue
module Fsched = Qnet_faults.Schedule
module Workload = Qnet_online.Workload
module Policy = Qnet_online.Policy
module Engine = Qnet_online.Engine
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let network ?(users = 8) ?(switches = 25) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:switches
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

(* Four users joined through one 2-qubit hub: exactly one pair-channel
   fits at a time.  The canonical contention instance. *)
let hub_network () =
  let b = Graph.Builder.create () in
  let user x y = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y in
  let a0 = user 0. 0. in
  let a1 = user 2000. 0. in
  let b0 = user 0. 1000. in
  let b1 = user 2000. 1000. in
  let hub =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:500.
  in
  List.iter
    (fun u -> ignore (Graph.Builder.add_edge b u hub 1200.))
    [ a0; a1; b0; b1 ];
  (Graph.Builder.freeze b, (a0, a1), (b0, b1))

let request ?(duration = 4.) ?(patience = 0.) id users arrival =
  {
    Workload.id;
    users;
    arrival;
    duration;
    deadline = arrival +. patience;
  }

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q 3. "c";
  Event_queue.push q 1. "a";
  Event_queue.push q 2. "b";
  Alcotest.(check (option (pair (float 0.) string)))
    "peek is earliest" (Some (1., "a"))
    (Option.map (fun t -> (t, "a")) (Event_queue.peek_time q));
  let drain () =
    let rec go acc =
      match Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain ());
  (* FIFO among equal timestamps — the determinism guarantee. *)
  List.iteri (fun i v -> Event_queue.push q (float_of_int (i mod 2)) v)
    [ "e0"; "o0"; "e1"; "o1"; "e2"; "o2" ];
  Alcotest.(check (list string))
    "fifo within a timestamp"
    [ "e0"; "e1"; "e2"; "o0"; "o1"; "o2" ]
    (drain ());
  check_bool "empty" true (Event_queue.is_empty q);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Event_queue.push: NaN timestamp") (fun () ->
      Event_queue.push q Float.nan "x")

let test_event_queue_batches () =
  let q = Event_queue.create () in
  List.iter
    (fun (t, v) -> Event_queue.push q t v)
    [ (0., "a"); (0., "b"); (2., "c"); (2.5, "d"); (5., "e") ];
  let vals batch = List.map (fun (_, _, v) -> v) batch in
  (* pop_batch drains exactly the earliest instant, FIFO within it. *)
  let batch = Event_queue.pop_batch q in
  Alcotest.(check (list string)) "first instant" [ "a"; "b" ] (vals batch);
  List.iter (fun (t, _, _) -> check_bool "stamped at 0" true (t = 0.)) batch;
  (* drain_until takes the slot window inclusively. *)
  let batch = Event_queue.drain_until q ~upto:2.5 in
  Alcotest.(check (list string)) "slot window" [ "c"; "d" ] (vals batch);
  (* Push order survives in the seq keys — the commit total order. *)
  let seqs = List.map (fun (_, s, _) -> s) batch in
  check_bool "seq strictly ascending" true
    (List.sort_uniq compare seqs = seqs);
  Alcotest.(check (list string))
    "tail" [ "e" ]
    (vals (Event_queue.pop_batch q));
  Alcotest.(check (list string)) "empty pop_batch" [] (vals (Event_queue.pop_batch q));
  Alcotest.(check (list string))
    "empty drain" []
    (vals (Event_queue.drain_until q ~upto:100.));
  Alcotest.check_raises "nan bound rejected"
    (Invalid_argument "Event_queue.drain_until: NaN bound") (fun () ->
      ignore (Event_queue.drain_until q ~upto:Float.nan))

let test_batch_drain_matches_pop_qcheck () =
  (* Draining batch-wise — whole instants or random slot windows — must
     visit events in exactly the (time, push order) sequence that
     repeated pop does. *)
  let prop seed =
    let rng = Prng.create seed in
    let n = 1 + Prng.int rng 60 in
    let stamps =
      List.init n (fun i -> (float_of_int (Prng.int rng 8) /. 2., i))
    in
    let fill () =
      let q = Event_queue.create () in
      List.iter (fun (t, i) -> Event_queue.push q t i) stamps;
      q
    in
    let by_pop =
      let q = fill () in
      let rec go acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, v) -> go ((t, v) :: acc)
      in
      go []
    in
    let by_batch =
      let q = fill () in
      let rec go acc =
        match Event_queue.pop_batch q with
        | [] -> List.concat (List.rev acc)
        | b -> go (List.map (fun (t, _, v) -> (t, v)) b :: acc)
      in
      go []
    in
    let by_slot =
      let q = fill () in
      let slot = float_of_int (Prng.int rng 3) in
      let rec go acc =
        match Event_queue.peek_time q with
        | None -> List.concat (List.rev acc)
        | Some t0 ->
            let b = Event_queue.drain_until q ~upto:(t0 +. slot) in
            go (List.map (fun (t, _, v) -> (t, v)) b :: acc)
      in
      go []
    in
    by_pop = by_batch && by_pop = by_slot
  in
  let test =
    QCheck.Test.make ~count:200 ~name:"batch drain equals pop order"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* Scheduled sources merged with the heap must behave exactly like the
   push-everything queue they replace: every scheduled item pushed up
   front, in source order, before anything else.  Times sit on a coarse
   grid so ties between sources, and with run-time pushes, are common;
   a reload mid-stream goes through [entries] + [cursor] on the merged
   queue and through [entries] alone on the reference. *)
let test_cursor_merge_matches_push_all_qcheck () =
  let prop seed =
    let rng = Prng.create seed in
    let stamp () = float_of_int (Prng.int rng 8) /. 2. in
    let items tag k =
      Array.init k (fun i -> (stamp (), Printf.sprintf "%s%d" tag i))
    in
    let sorted tag k =
      let a = items tag k in
      Array.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) a;
      a
    in
    (* arrivals in workload order (not time-sorted); faults and
       reconfigurations sorted, as the engine hands them over *)
    let scheduled =
      [| items "a" (Prng.int rng 30); sorted "f" (Prng.int rng 12);
         sorted "r" (Prng.int rng 6) |]
    in
    let sources () =
      Array.map (Event_queue.source ~time:fst ~wrap:snd) scheduled
    in
    let reference = ref (Event_queue.create ()) in
    Array.iter
      (Array.iter (fun (t, v) -> Event_queue.push !reference t v))
      scheduled;
    let merged = ref (Event_queue.create ~sources:(sources ()) ()) in
    let ok = ref true in
    let same a b = if a <> b then ok := false in
    let pushed = ref 0 in
    for _ = 1 to 100 do
      (match Prng.int rng 7 with
      | 0 | 1 ->
          let t = stamp () and v = Printf.sprintf "p%d" !pushed in
          incr pushed;
          Event_queue.push !reference t v;
          Event_queue.push !merged t v
      | 2 -> same (Event_queue.pop !reference) (Event_queue.pop !merged)
      | 3 ->
          same (Event_queue.pop_batch !reference)
            (Event_queue.pop_batch !merged)
      | 4 ->
          let upto = stamp () in
          same
            (Event_queue.drain_until !reference ~upto)
            (Event_queue.drain_until !merged ~upto)
      | 5 ->
          let r = !reference and m = !merged in
          reference :=
            Event_queue.of_entries ~next_seq:(Event_queue.next_seq r)
              (Event_queue.entries r);
          merged := Event_queue.create ~sources:(sources ()) ();
          Event_queue.load !merged ~next_seq:(Event_queue.next_seq m)
            ~cursor:(Event_queue.cursor m) (Event_queue.entries m)
      | _ -> ());
      same (Event_queue.peek_key !reference) (Event_queue.peek_key !merged);
      same (Event_queue.length !reference) (Event_queue.length !merged);
      same (Event_queue.next_seq !reference) (Event_queue.next_seq !merged)
    done;
    same
      (Event_queue.drain_until !reference ~upto:infinity)
      (Event_queue.drain_until !merged ~upto:infinity);
    !ok && Event_queue.is_empty !merged
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"cursor merge equals push-all"
       QCheck.(int_range 1 100_000)
       prop)

let test_cursor_load_validation () =
  let sources () =
    [| Event_queue.source ~time:Fun.id ~wrap:string_of_float [| 1.; 2. |] |]
  in
  let q = Event_queue.create ~sources:(sources ()) () in
  check_int "first push seq follows the scheduled items" 2
    (Event_queue.next_seq q);
  let raises what f =
    check_bool what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "cursor of the wrong arity" (fun () ->
      Event_queue.load q ~next_seq:2 []);
  raises "cursor past the end" (fun () ->
      Event_queue.load q ~next_seq:2 ~cursor:[| 3 |] []);
  raises "entry claiming a scheduled seq" (fun () ->
      Event_queue.load q ~next_seq:3 ~cursor:[| 0 |] [ (0.5, 1, "x") ]);
  raises "next_seq inside the scheduled range" (fun () ->
      Event_queue.load q ~next_seq:1 ~cursor:[| 0 |] []);
  raises "NaN source time" (fun () ->
      ignore (Event_queue.source ~time:Fun.id ~wrap:Fun.id [| Float.nan |]));
  Event_queue.load q ~next_seq:4 ~cursor:[| 1 |] [ (2., 3, "late") ];
  Alcotest.(check (list (triple (float 0.) int string)))
    "resumes at the cursor, scheduled first on a tie"
    [ (2., 1, "2."); (2., 3, "late") ]
    (Event_queue.drain_until q ~upto:infinity)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_workload_deterministic () =
  let g = network 1 in
  let spec = Workload.spec ~requests:40 () in
  let gen seed = Workload.generate (Prng.create seed) g spec in
  check_bool "same seed, same workload" true (gen 5 = gen 5);
  check_bool "different seed, different workload" true (gen 5 <> gen 6)

let test_workload_shapes () =
  let g = network 2 in
  let spec =
    Workload.spec ~requests:60
      ~arrivals:(Workload.Batched { period = 4.; size = 5 })
      ~group_size:(Workload.Fixed 3) ~duration:(2., 2.) ~patience:(1., 3.) ()
  in
  let reqs = Workload.generate (Prng.create 3) g spec in
  check_int "count" 60 (List.length reqs);
  List.iter
    (fun (r : Workload.request) ->
      check_int "fixed group" 3 (List.length r.Workload.users);
      check_bool "batched arrival on grid" true
        (Float.rem r.Workload.arrival 4. = 0.);
      check_bool "duration pinned" true (r.Workload.duration = 2.);
      check_bool "deadline after arrival" true
        (r.Workload.deadline >= r.Workload.arrival +. 1.))
    reqs;
  (* 5 per batch instant *)
  let at_zero =
    List.length
      (List.filter (fun (r : Workload.request) -> r.Workload.arrival = 0.) reqs)
  in
  check_int "batch size" 5 at_zero

let test_workload_validation () =
  let g = network 3 in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore g;
  raises "Workload.spec: Poisson rate must be positive" (fun () ->
      ignore (Workload.spec ~arrivals:(Workload.Poisson 0.) ()));
  raises "Workload.spec: group size < 2" (fun () ->
      ignore (Workload.spec ~group_size:(Workload.Fixed 1) ()));
  raises "Workload.spec: duration must be positive" (fun () ->
      ignore (Workload.spec ~duration:(0., 1.) ()));
  raises "Workload.spec: bad patience range" (fun () ->
      ignore (Workload.spec ~patience:(3., 1.) ()));
  Alcotest.check_raises "population bound"
    (Invalid_argument "Workload.generate: group size exceeds user population")
    (fun () ->
      ignore
        (Workload.generate (Prng.create 1) g
           (Workload.spec ~group_size:(Workload.Uniform (2, 100)) ())))

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

let test_single_request_served () =
  let g = network 4 in
  let u = Graph.users g in
  let reqs = [ request 0 [ List.nth u 0; List.nth u 1 ] 0. ] in
  let report, outcomes = Engine.run g params ~requests:reqs in
  check_int "served" 1 report.Engine.served;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { start; tree; rate; _ }; _ } ] ->
      check_bool "served on arrival" true (start = 0.);
      check_bool "positive rate" true (rate > 0.);
      check_bool "tree valid" true
        (Verify.is_valid g params
           ~users:[ List.nth u 0; List.nth u 1 ]
           tree)
  | _ -> Alcotest.fail "expected one served outcome"

let test_contention_and_queueing () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let reqs patience =
    [
      request ~duration:4. ~patience 0 [ a0; a1 ] 0.;
      request ~duration:4. ~patience 1 [ b0; b1 ] 0.;
    ]
  in
  (* Reject admission: the loser is turned away at arrival. *)
  let config = Engine.config ~admission:Engine.Reject Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 0.) in
  check_int "reject: one served" 1 report.Engine.served;
  check_int "reject: one rejected" 1 report.Engine.rejected;
  (match (List.nth outcomes 1).Engine.resolution with
  | Engine.Rejected { queue_full; _ } ->
      check_bool "rejected for routing, not queue bound" false queue_full
  | _ -> Alcotest.fail "expected request 1 rejected");
  (* Queueing with enough patience: the loser waits out the lease. *)
  let config = Engine.config ~retry_base:0.5 Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 10.) in
  check_int "queue: both served" 2 report.Engine.served;
  check_bool "waiting happened" true (report.Engine.mean_wait > 0.);
  (match (List.nth outcomes 1).Engine.resolution with
  | Engine.Served { start; attempts; _ } ->
      check_bool "served only after the lease expired" true (start >= 4.);
      check_bool "took retries" true (attempts > 1)
  | _ -> Alcotest.fail "expected request 1 served");
  check_bool "retries counted" true (report.Engine.retries > 0);
  (* Patience shorter than the lease: the loser expires. *)
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 2.) in
  check_int "short patience: one served" 1 report.Engine.served;
  check_int "short patience: one expired" 1 report.Engine.expired;
  match (List.nth outcomes 1).Engine.resolution with
  | Engine.Expired { at; _ } ->
      check_bool "expired at its deadline" true (at = 2.)
  | _ -> Alcotest.fail "expected request 1 expired"

let test_queue_bound () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  (* Three contenders behind one lease; a queue bound of 1 admits only
     the first into the queue, the next is turned away queue-full. *)
  let reqs =
    [
      request ~duration:10. ~patience:20. 0 [ a0; a1 ] 0.;
      request ~duration:2. ~patience:20. 1 [ b0; b1 ] 0.;
      request ~duration:2. ~patience:20. 2 [ a0; b1 ] 0.5;
    ]
  in
  let config = Engine.config ~admission:(Engine.Queue 1) Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "one queue-full rejection" 1 report.Engine.rejected;
  (match (List.nth outcomes 2).Engine.resolution with
  | Engine.Rejected { queue_full; _ } ->
      check_bool "rejected because the queue was full" true queue_full
  | _ -> Alcotest.fail "expected request 2 rejected");
  check_int "queue depth peaked at the bound" 1 report.Engine.peak_queue_depth

let test_conservation_and_determinism () =
  let g = network ~qubits:2 5 in
  let spec =
    Workload.spec ~requests:50 ~arrivals:(Workload.Poisson 2.)
      ~patience:(0., 6.) ()
  in
  let run () =
    let reqs = Workload.generate (Prng.create 11) g spec in
    (* Fresh policy per run: a cached policy's memo table must not leak
       between runs. *)
    let config = Engine.config (Policy.cached Policy.prim) in
    Engine.run ~config g params ~requests:reqs
  in
  let report, outcomes = run () in
  check_int "every request resolved" 50 (List.length outcomes);
  check_int "conservation" 50
    (report.Engine.served + report.Engine.rejected + report.Engine.expired);
  let report', outcomes' = run () in
  check_bool "identical reports across runs" true (report = report');
  check_bool "identical outcome count" true
    (List.length outcomes = List.length outcomes');
  let budget =
    List.fold_left (fun acc s -> acc + Graph.qubits g s) 0 (Graph.switches g)
  in
  check_bool "peak within total budget" true
    (report.Engine.peak_qubits_in_use <= budget);
  check_bool "utilization in [0,1]" true
    (report.Engine.mean_utilization >= 0.
    && report.Engine.mean_utilization <= 1.)

let test_engine_validation () =
  let g = network 6 in
  let u = Graph.users g in
  let u0 = List.nth u 0 and u1 = List.nth u 1 in
  let bad label reqs msg =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Engine.run g params ~requests:reqs))
  in
  bad "duplicate id"
    [ request 1 [ u0; u1 ] 0.; request 1 [ u0; u1 ] 1. ]
    "Engine.run: duplicate request id";
  bad "negative arrival" [ request 1 [ u0; u1 ] (-1.) ]
    "Engine.run: bad arrival time";
  bad "short group" [ request 1 [ u0 ] 0. ]
    "Engine.run: request needs >= 2 users";
  bad "duplicate users" [ request 1 [ u0; u0 ] 0. ]
    "Engine.run: duplicate users in request";
  bad "zero duration"
    [ request ~duration:0. 1 [ u0; u1 ] 0. ]
    "Engine.run: duration must be positive";
  bad "deadline before arrival"
    [ { Workload.id = 1; users = [ u0; u1 ]; arrival = 2.; duration = 1.;
        deadline = 1. } ]
    "Engine.run: deadline before arrival";
  let s = List.hd (Graph.switches g) in
  bad "non-user member" [ request 1 [ u0; s ] 0. ]
    "Engine.run: request member is not a user";
  Alcotest.check_raises "bad config"
    (Invalid_argument "Engine.config: retry_max < retry_base") (fun () ->
      ignore (Engine.config ~retry_base:2. ~retry_max:1. Policy.prim))

(* Regression: a queued request whose patience runs out exactly at a
   retry instant must be recorded [Expired], not retried into service
   past its deadline (and never [Rejected]).  The winner's lease ends
   at t = 2 — the very instant the loser's clamped final retry fires —
   so capacity IS available then; serving it anyway would breach the
   deadline contract. *)
(* A checkpoint holds only live work.  On a run with faults and
   overload control, at every cut: the states are exactly the requests
   the arrival cursor has read and no outcome has settled; every active
   lease has exactly one pending expiry (at its finish) and every
   waiting request exactly one pending retry; no lease or request has
   two.  The only other entries are stale leftovers the run tolerates —
   an expiry of a lease a fault aborted, a retry of a request that
   settled first — and each still fires within its lease or patience
   window. *)
let test_cut_holds_only_live_work () =
  let g = network ~switches:30 ~qubits:3 21 in
  let reqs =
    Workload.generate (Prng.create 22) g
      (Workload.spec ~requests:300 ~arrivals:(Workload.Poisson 1.5) ())
  in
  let faults =
    Qnet_faults.Model.make ~mtbf:25. ~mttr:5. ~targets:Qnet_faults.Model.Both
      ~seed:23 ()
  in
  let overload = Qnet_overload.Admission.make ~max_queue:6 ~rate:1.2 () in
  let config = Engine.config ~overload ~recovery:Engine.Abort Policy.prim in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (r : Workload.request) -> Hashtbl.replace by_id r.Workload.id r)
    reqs;
  let max_duration =
    List.fold_left
      (fun m (r : Workload.request) -> Float.max m r.Workload.duration)
      0. reqs
  in
  let cuts = ref 0 and stale = ref 0 and live_peak = ref 0 in
  let check_cut at (s : Engine.snapshot) =
    incr cuts;
    let arrived =
      List.filteri (fun i _ -> i < s.Engine.s_arrivals.Engine.sc_next) reqs
      |> List.map (fun (r : Workload.request) -> r.Workload.id)
    in
    let settled = List.map fst s.Engine.s_outcomes in
    let state_ids = List.map (fun ss -> ss.Engine.ss_id) s.Engine.s_states in
    Alcotest.(check (list int))
      (Printf.sprintf "t=%g: states = arrived minus settled" at)
      (List.filter (fun id -> not (List.mem id settled)) arrived)
      state_ids;
    let expiries =
      List.filter_map
        (function t, _, Engine.SE_expiry lid -> Some (t, lid) | _ -> None)
        s.Engine.s_events
    and retries =
      List.filter_map
        (function t, _, Engine.SE_retry id -> Some (t, id) | _ -> None)
        s.Engine.s_events
    in
    let distinct l =
      List.length (List.sort_uniq compare (List.map snd l)) = List.length l
    in
    let active_lid lid =
      List.exists (fun sa -> sa.Engine.sa_lid = lid) s.Engine.s_active
    in
    let stale_expiries =
      List.filter (fun (_, lid) -> not (active_lid lid)) expiries
    and stale_retries =
      List.filter (fun (_, id) -> not (List.mem id state_ids)) retries
    in
    stale := !stale + List.length stale_expiries + List.length stale_retries;
    check_bool
      (Printf.sprintf "t=%g: each lease and request has at most one entry" at)
      true
      (distinct expiries && distinct retries);
    check_bool
      (Printf.sprintf "t=%g: every active lease has its expiry" at)
      true
      (List.for_all
         (fun (sa : Engine.s_active) ->
           List.mem (sa.Engine.sa_finish, sa.Engine.sa_lid) expiries)
         s.Engine.s_active);
    check_bool
      (Printf.sprintf "t=%g: every waiting request has its retry" at)
      true
      (List.for_all
         (fun (ss : Engine.s_state) ->
           (not ss.Engine.ss_waiting)
           || List.exists (fun (_, id) -> id = ss.Engine.ss_id) retries)
         s.Engine.s_states);
    check_bool
      (Printf.sprintf "t=%g: stale entries fire within their window" at)
      true
      (List.for_all (fun (t, _) -> t <= at +. max_duration) stale_expiries
      && List.for_all
           (fun (t, id) ->
             List.mem id settled
             && t <= (Hashtbl.find by_id id).Workload.deadline)
           stale_retries);
    live_peak :=
      max !live_peak (List.length s.Engine.s_events + List.length state_ids)
  in
  let report, _ =
    Engine.run ~config ~faults ~checkpoint:(2., check_cut) g params
      ~requests:reqs
  in
  check_bool "the run cut many checkpoints" true (!cuts >= 50);
  check_bool "faults and overload acted" true
    (report.Engine.leases_aborted > 0 && report.Engine.shed > 0);
  check_bool "a cut holds far fewer events than the workload" true
    (!live_peak < List.length reqs / 4);
  check_bool "stale leftovers occurred and were checked" true (!stale > 0)

let test_retry_at_deadline_expires () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let reqs =
    [
      request ~duration:2. ~patience:10. 0 [ a0; a1 ] 0.;
      request ~duration:2. ~patience:2. 1 [ b0; b1 ] 0.;
    ]
  in
  let config = Engine.config ~retry_base:0.5 Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "winner served" 1 report.Engine.served;
  check_int "loser expired" 1 report.Engine.expired;
  check_int "nothing rejected" 0 report.Engine.rejected;
  check_int "nothing shed" 0 report.Engine.shed;
  match (List.nth outcomes 1).Engine.resolution with
  | Engine.Expired { at; _ } ->
      check_bool "expired exactly at its deadline" true (at = 2.)
  | _ -> Alcotest.fail "expected request 1 to expire at its deadline"

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)

let test_policy_names () =
  check_bool "prim" true (Policy.of_name "prim" <> None);
  check_bool "alg3" true (Policy.of_name "alg3" <> None);
  check_bool "cached-eqcast" true (Policy.of_name "cached-eqcast" <> None);
  check_bool "unknown" true (Policy.of_name "dijkstra" = None);
  check_bool "bare cached-" true (Policy.of_name "cached-" = None);
  check_int "8 selectable policies" 8 (List.length (Policy.all ()))

let test_try_consume () =
  let g, (a0, a1), _ = hub_network () in
  let capacity = Capacity.of_graph g in
  let tree =
    match Multi_group.prim_for_users g params ~capacity ~users:[ a0; a1 ] with
    | Some t -> t
    | None -> Alcotest.fail "hub pair must route"
  in
  (* prim_for_users consumed the hub's 2 qubits; a second copy of the
     same tree must be refused and leave the state untouched. *)
  let hub = List.hd (Graph.switches g) in
  check_int "hub full" 0 (Capacity.remaining capacity hub);
  check_bool "second copy refused" false (Policy.try_consume capacity tree);
  check_int "refusal left state untouched" 0 (Capacity.remaining capacity hub);
  Capacity.release_channel capacity
    (List.hd tree.Ent_tree.channels).Channel.path;
  check_bool "fits after release" true (Policy.try_consume capacity tree);
  check_int "consumed again" 0 (Capacity.remaining capacity hub)

let test_adapter_respects_residual () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let alg3 = Option.get (Policy.of_name "alg3") in
  let capacity = Capacity.of_graph g in
  check_bool "first pair routes" true
    (Qnet_online.Policy.route alg3 g params ~capacity ~users:[ a0; a1 ] <> None);
  check_bool "hub depleted: second pair refused" true
    (Qnet_online.Policy.route alg3 g params ~capacity ~users:[ b0; b1 ] = None)

let test_cached_policy () =
  let g = network 7 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1 ] in
  let p = Policy.cached Policy.prim in
  let capacity = Capacity.of_graph g in
  let t1 = Qnet_online.Policy.route p g params ~capacity ~users in
  let t2 = Qnet_online.Policy.route p g params ~capacity ~users in
  (match (t1, t2) with
  | Some t1, Some t2 ->
      check_bool "cache replays the same tree" true
        (List.for_all2 Channel.equal t1.Ent_tree.channels
           t2.Ent_tree.channels)
  | _ -> Alcotest.fail "both lookups must route");
  ignore (Qnet_online.Policy.route p g params ~capacity ~users)

(* ------------------------------------------------------------------ *)
(* Safety property: concurrent leases never oversubscribe a switch.    *)

(* Replay every served outcome's lease interval and check that at all
   times the summed per-switch demand of the live trees fits the
   switch's budget — releases happen before grants at equal instants,
   exactly like the engine's event order. *)
let assert_never_oversubscribed g outcomes =
  let events =
    List.concat_map
      (fun (o : Engine.outcome) ->
        match o.Engine.resolution with
        | Engine.Served { start; finish; tree; _ } ->
            let usage = Ent_tree.qubit_usage tree in
            [ (finish, 0, List.map (fun (v, q) -> (v, -q)) usage);
              (start, 1, usage) ]
        | _ -> [])
      outcomes
    |> List.sort compare
  in
  let used = Array.make (Graph.vertex_count g) 0 in
  List.iter
    (fun (_, _, deltas) ->
      List.iter
        (fun (v, dq) ->
          used.(v) <- used.(v) + dq;
          if used.(v) < 0 then Alcotest.fail "negative usage in replay";
          if used.(v) > Graph.qubits g v then
            Alcotest.failf "switch %d oversubscribed: %d > %d" v used.(v)
              (Graph.qubits g v))
        deltas)
    events

let test_never_oversubscribed_qcheck () =
  let prop seed =
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:30
        ~arrivals:(Workload.Poisson 2.)
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    let policy =
      match seed mod 3 with
      | 0 -> Policy.prim
      | 1 -> Policy.cached Policy.prim
      | _ -> Option.get (Policy.of_name "alg3")
    in
    let config = Engine.config policy in
    let report, outcomes = Engine.run ~config g params ~requests:reqs in
    assert_never_oversubscribed g outcomes;
    (* Every served tree must also be individually valid for its
       request's users on the real network. *)
    List.iter
      (fun (o : Engine.outcome) ->
        match o.Engine.resolution with
        | Engine.Served { tree; _ } ->
            if
              not
                (Verify.is_valid g params ~users:o.Engine.request.Workload.users
                   tree)
            then Alcotest.fail "served tree invalid"
        | _ -> ())
      outcomes;
    report.Engine.served + report.Engine.rejected + report.Engine.expired
    = report.Engine.arrived
  in
  let test =
    QCheck.Test.make ~count:25 ~name:"no oversubscription under load"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* ------------------------------------------------------------------ *)
(* Chaos replay property: under ANY fault/repair schedule — including
   spurious repairs and duplicate failures — no switch is ever
   oversubscribed and every interrupted lease is refunded exactly
   once.  Incidents let us reconstruct each request's full tree
   timeline: a lease holds its admitted tree until the first incident,
   then each incident's [after] tree until the next, ending at the
   lease expiry (served) or at the single aborting incident
   (interrupted). *)

let assert_fault_replay_safe g outcomes incidents =
  let by_req = Hashtbl.create 16 in
  List.iter
    (fun (i : Engine.incident) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_req i.Engine.request_id)
      in
      Hashtbl.replace by_req i.Engine.request_id (prev @ [ i ]))
    incidents;
  let segments = ref [] in
  let rec walk ~finish ~final_tree t0 = function
    | [] ->
        Option.iter
          (fun f -> segments := (t0, f, Option.get final_tree) :: !segments)
          finish
    | (i : Engine.incident) :: rest -> (
        segments := (t0, i.Engine.at, i.Engine.before) :: !segments;
        match i.Engine.after with
        | Some _ -> walk ~finish ~final_tree i.Engine.at rest
        | None ->
            (* The abort must be the request's last incident. *)
            if rest <> [] then
              Alcotest.fail "incidents after an aborting incident")
  in
  List.iter
    (fun (o : Engine.outcome) ->
      let incs =
        Option.value ~default:[]
          (Hashtbl.find_opt by_req o.Engine.request.Workload.id)
      in
      match o.Engine.resolution with
      | Engine.Served { start; finish; tree; _ } ->
          List.iter
            (fun (i : Engine.incident) ->
              if i.Engine.after = None then
                Alcotest.fail "served request has an aborting incident")
            incs;
          walk ~finish:(Some finish) ~final_tree:(Some tree) start incs
      | Engine.Interrupted { start; at; _ } -> (
          match List.rev incs with
          | [] -> Alcotest.fail "interrupted without an incident"
          | last :: _ ->
              if last.Engine.after <> None then
                Alcotest.fail "interrupted but the last incident recovered";
              if last.Engine.at <> at then
                Alcotest.fail "abort time mismatch";
              if
                List.length
                  (List.filter
                     (fun (i : Engine.incident) -> i.Engine.after = None)
                     incs)
                <> 1
              then Alcotest.fail "lease aborted (refunded) more than once";
              walk ~finish:None ~final_tree:None start incs)
      | Engine.Rejected _ | Engine.Shed _ | Engine.Expired _ ->
          if incs <> [] then
            Alcotest.fail "request without a lease saw an incident")
    outcomes;
  (* Sweep the reconstructed segments: releases before grants at equal
     instants, per-switch demand within budget at all times, and every
     qubit given back by the end. *)
  let events =
    List.concat_map
      (fun (t0, t1, tree) ->
        let usage = Ent_tree.qubit_usage tree in
        [ (t1, 0, List.map (fun (v, q) -> (v, -q)) usage); (t0, 1, usage) ])
      !segments
    |> List.sort compare
  in
  let used = Array.make (Graph.vertex_count g) 0 in
  List.iter
    (fun (_, _, deltas) ->
      List.iter
        (fun (v, dq) ->
          used.(v) <- used.(v) + dq;
          if used.(v) < 0 then Alcotest.fail "negative usage in replay";
          if used.(v) > Graph.qubits g v then
            Alcotest.failf "switch %d oversubscribed: %d > %d" v used.(v)
              (Graph.qubits g v))
        deltas)
    events;
  Array.iteri
    (fun v u -> if u <> 0 then Alcotest.failf "switch %d not fully refunded" v)
    used

let test_fault_replay_qcheck () =
  let prop seed =
    let rng = Prng.create ((seed * 7) + 1) in
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:25
        ~arrivals:(Workload.Poisson 1.5)
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    (* Adversarial schedule: random instants, random elements, random
       direction — repairs of healthy elements and double failures
       included on purpose. *)
    let schedule =
      List.init
        (1 + Prng.int rng 60)
        (fun _ ->
          {
            Fsched.time = Prng.float rng 40.;
            element =
              (if Prng.bool rng then
                 Fsched.Link (Prng.int rng (Graph.edge_count g))
               else Fsched.Switch (Prng.int rng (Graph.vertex_count g)));
            up = Prng.bool rng;
          })
    in
    let recovery =
      match seed mod 3 with
      | 0 -> Engine.Abort
      | 1 -> Engine.Repair
      | _ -> Engine.Reroute
    in
    let config = Engine.config ~recovery Policy.prim in
    let incidents = ref [] in
    let report, outcomes =
      Engine.run ~config ~fault_schedule:schedule
        ~on_incident:(fun i -> incidents := i :: !incidents)
        g params ~requests:reqs
    in
    assert_fault_replay_safe g outcomes (List.rev !incidents);
    let interrupted =
      List.length
        (List.filter
           (fun o ->
             match o.Engine.resolution with
             | Engine.Interrupted _ -> true
             | _ -> false)
           outcomes)
    in
    check_int "aborts match interrupted outcomes" report.Engine.leases_aborted
      interrupted;
    check_int "interruption ledger balances" report.Engine.leases_interrupted
      (report.Engine.leases_recovered + report.Engine.leases_aborted);
    report.Engine.served + report.Engine.rejected + report.Engine.expired
    + interrupted
    = report.Engine.arrived
  in
  let test =
    QCheck.Test.make ~count:120
      ~name:"fault replay: refund exactly once, never oversubscribed"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* ------------------------------------------------------------------ *)
(* Batched serving equivalence: pool-backed speculative solves with
   deterministic commit must leave no observable trace — report,
   resolution stream, and the engine/overload counters all equal to
   the serial run, at every jobs level and slot window, under faults
   and overload too.  (Solver-internal telemetry like online.route
   span counts is explicitly OUTSIDE the contract: discarded
   speculation adds calls there by design.) *)

let run_with_engine_counters f =
  let module Tm = Qnet_telemetry.Metrics in
  Tm.set_enabled true;
  Tm.reset ();
  let result = f () in
  let counters =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Tm.Counter_v n
          when String.starts_with ~prefix:"online.engine." name
               || String.starts_with ~prefix:"online.overload." name ->
            Some (name, n)
        | _ -> None)
      (Tm.snapshot ())
  in
  Tm.set_enabled false;
  (result, List.sort compare counters)

let test_batched_matches_serial_qcheck () =
  let prop seed =
    let rng = Prng.create ((seed * 13) + 5) in
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:30
        ~arrivals:
          (match seed mod 3 with
          | 0 -> Workload.Batched { period = 1.5; size = 5 }
          | 1 -> Workload.Poisson 2.
          | _ -> Workload.Pareto { alpha = 1.5; lo = 0.05; hi = 2. })
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    (* Fresh policy per run: the cached adapter's memo table must not
       leak between the serial baseline and the batched replays. *)
    let make_policy () =
      match seed mod 4 with
      | 0 -> Policy.prim
      | 1 -> Option.get (Policy.of_name "alg3")
      | 2 -> Option.get (Policy.of_name "eqcast")
      (* concurrent_safe = false: the engine must fall back to the
         serial path and still agree. *)
      | _ -> Policy.cached Policy.prim
    in
    let overload =
      if seed mod 5 = 0 then
        Qnet_overload.Admission.make ~max_queue:4 ~max_inflight:6 ~rate:2. ()
      else Qnet_overload.Admission.none
    in
    (* Half the scenarios replay an adversarial fault schedule. *)
    let fault_schedule =
      if seed mod 2 = 0 then
        Some
          (List.init
             (1 + Prng.int rng 40)
             (fun _ ->
               {
                 Fsched.time = Prng.float rng 30.;
                 element =
                   (if Prng.bool rng then
                      Fsched.Link (Prng.int rng (Graph.edge_count g))
                    else Fsched.Switch (Prng.int rng (Graph.vertex_count g)));
                 up = Prng.bool rng;
               }))
      else None
    in
    let run ?pool ?slot () =
      let config = Engine.config ~retry_base:0.5 ~overload (make_policy ()) in
      run_with_engine_counters (fun () ->
          Engine.run ~config ?fault_schedule ?pool ?slot g params
            ~requests:reqs)
    in
    let (base_report, base_outcomes), base_counters = run () in
    List.iter
      (fun jobs ->
        Qnet_util.Pool.with_pool ~jobs (fun pool ->
            List.iter
              (fun slot ->
                let (report, outcomes), counters = run ~pool ~slot () in
                if report <> base_report then
                  Alcotest.failf "report diverged at jobs=%d slot=%g" jobs
                    slot;
                if outcomes <> base_outcomes then
                  Alcotest.failf "outcomes diverged at jobs=%d slot=%g" jobs
                    slot;
                if counters <> base_counters then
                  Alcotest.failf
                    "engine counters diverged at jobs=%d slot=%g" jobs slot)
              [ 0.; 2. ]))
      [ 1; 2; 4 ];
    true
  in
  let test =
    QCheck.Test.make ~count:30
      ~name:"batched serving equals serial (reports, outcomes, counters)"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* The engine must also survive being handed a pool while already
   inside a parallel region (nested speculation is downgraded to the
   serial path, not an exception). *)
let test_engine_inside_parallel_region () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let reqs =
    [
      request ~duration:4. ~patience:10. 0 [ a0; a1 ] 0.;
      request ~duration:4. ~patience:10. 1 [ b0; b1 ] 0.;
    ]
  in
  let config = Engine.config ~retry_base:0.5 Policy.prim in
  let base = Engine.run ~config g params ~requests:reqs in
  Qnet_util.Pool.with_pool ~jobs:2 (fun pool ->
      let inner = ref None in
      Qnet_util.Pool.parallel_for pool 1 (fun _ ->
          inner := Some (Engine.run ~config ~pool g params ~requests:reqs));
      match !inner with
      | Some got ->
          check_bool "nested run equals serial" true (fst got = fst base)
      | None -> Alcotest.fail "nested run never happened")


(* A retry whose request has settled (or stopped waiting) changes
   nothing, so it must not stretch the makespan: without faults the
   makespan is the last arrival or settlement.  Under queue pressure
   (max_queue 3, Poisson 2/t on 20 switches) shed and rescanned
   requests leave such retries behind; seed 27 once reported makespan
   25.87 against a last settlement at 25.71. *)
let test_stale_retries_inert () =
  let last_event outcomes =
    List.fold_left
      (fun acc (o : Engine.outcome) ->
        let settled =
          match o.Engine.resolution with
          | Engine.Served { finish; _ } -> finish
          | Engine.Rejected { at; _ }
          | Engine.Shed { at; _ }
          | Engine.Expired { at; _ }
          | Engine.Interrupted { at; _ } ->
              at
        in
        Float.max acc (Float.max settled o.Engine.request.Workload.arrival))
      0. outcomes
  in
  let run seed =
    let g = network ~switches:20 seed in
    let requests =
      Workload.generate (Prng.create seed) g
        (Workload.spec ~requests:40 ~arrivals:(Workload.Poisson 2.) ())
    in
    let overload = Qnet_overload.Admission.make ~max_queue:3 () in
    Engine.run ~config:(Engine.config ~overload Policy.prim) g params ~requests
  in
  let report, outcomes = run 27 in
  Alcotest.(check (float 1e-9))
    "seed 27 makespan" (last_event outcomes) report.Engine.makespan;
  for seed = 1 to 200 do
    let report, outcomes = run seed in
    if report.Engine.makespan <> last_event outcomes then
      Alcotest.failf "seed %d: makespan %g, last event %g" seed
        report.Engine.makespan (last_event outcomes)
  done

let () =
  Alcotest.run "online"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_order;
          Alcotest.test_case "batches" `Quick test_event_queue_batches;
          Alcotest.test_case "batch drain order (qcheck)" `Quick
            test_batch_drain_matches_pop_qcheck;
          Alcotest.test_case "cursor merge = push-all (qcheck)" `Quick
            test_cursor_merge_matches_push_all_qcheck;
          Alcotest.test_case "cursor load validation" `Quick
            test_cursor_load_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single request" `Quick test_single_request_served;
          Alcotest.test_case "contention + queueing" `Quick
            test_contention_and_queueing;
          Alcotest.test_case "queue bound" `Quick test_queue_bound;
          Alcotest.test_case "conservation + determinism" `Quick
            test_conservation_and_determinism;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "retry at deadline expires" `Quick
            test_retry_at_deadline_expires;
          Alcotest.test_case "a cut holds only live work" `Quick
            test_cut_holds_only_live_work;
          Alcotest.test_case "stale retries are inert" `Quick
            test_stale_retries_inert;
        ] );
      ( "policy",
        [
          Alcotest.test_case "names" `Quick test_policy_names;
          Alcotest.test_case "try_consume" `Quick test_try_consume;
          Alcotest.test_case "residual adapter" `Quick
            test_adapter_respects_residual;
          Alcotest.test_case "cached" `Quick test_cached_policy;
        ] );
      ( "safety",
        [
          Alcotest.test_case "never oversubscribed (qcheck)" `Slow
            test_never_oversubscribed_qcheck;
          Alcotest.test_case "fault replay (qcheck)" `Slow
            test_fault_replay_qcheck;
        ] );
      ( "batched",
        [
          Alcotest.test_case "matches serial (qcheck)" `Slow
            test_batched_matches_serial_qcheck;
          Alcotest.test_case "nested region falls back" `Quick
            test_engine_inside_parallel_region;
        ] );
    ]
