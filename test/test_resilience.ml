(* Tests for checkpoint/restore, live reconfiguration and the
   crash-recovery drill: the snapshot codec, the durable checkpoint
   file layer (integrity footer, friendly errors), reconfig validation
   and engine semantics (leave/join/provision with capacity-safe lease
   recovery), workload modulators, and the central robustness property
   that a run restored at any checkpoint instant finishes with a
   byte-identical report at every parallelism level. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Pool = Qnet_util.Pool
module Sexp = Qnet_util.Sexp
module Model = Qnet_faults.Model
module Workload = Qnet_online.Workload
module Policy = Qnet_online.Policy
module Engine = Qnet_online.Engine
module Reconfig = Qnet_online.Reconfig
module Checkpoint = Qnet_resilience.Checkpoint
module Delta = Qnet_resilience.Delta
module Journal = Qnet_resilience.Journal
module Chain = Qnet_resilience.Chain
module Drill = Qnet_resilience.Drill
module Wire = Qnet_telemetry.Wire
module Metrics = Qnet_telemetry.Metrics
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

(* Two users reachable through either of two parallel 2-qubit switches:
   draining the one in use leaves a live detour. *)
let parallel_network () =
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 =
    Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:2000. ~y:0.
  in
  let sa =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:100.
  in
  let sb =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:(-300.)
  in
  List.iter
    (fun s ->
      ignore (Graph.Builder.add_edge b u0 s 1100.);
      ignore (Graph.Builder.add_edge b s u1 1100.))
    [ sa; sb ];
  (Graph.Builder.freeze b, (u0, u1), (sa, sb))

let request ?(duration = 4.) ?(patience = 0.) id users arrival =
  { Workload.id; users; arrival; deadline = arrival +. patience; duration }

let interior_switch tree =
  match tree.Ent_tree.channels with
  | [ c ] -> (
      match Channel.interior_switches c with
      | [ s ] -> s
      | _ -> Alcotest.fail "expected a single interior switch")
  | _ -> Alcotest.fail "expected a single channel"

let generated seed g =
  let wspec =
    Workload.spec ~requests:40 ~arrivals:(Workload.Poisson 0.6) ()
  in
  Workload.generate (Prng.create seed) g wspec

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                      *)

let snapshot_of seed =
  let g = network seed in
  let reqs = generated (seed + 1) g in
  let captured = ref None in
  let _ =
    Engine.run
      ~checkpoint:
        ( 10.,
          fun _ snap -> if !captured = None then captured := Some snap )
      g params ~requests:reqs
  in
  match !captured with
  | Some snap -> (g, reqs, snap)
  | None -> Alcotest.fail "run cut no checkpoint"

let test_snapshot_roundtrip () =
  let _, _, snap = snapshot_of 3 in
  let doc = Engine.snapshot_to_sexp snap in
  match Engine.snapshot_of_sexp doc with
  | Error m -> Alcotest.fail ("snapshot does not re-parse: " ^ m)
  | Ok snap' ->
      check_bool "re-serialisation is identical" true
        (String.equal (Sexp.to_string doc)
           (Sexp.to_string (Engine.snapshot_to_sexp snap')))

let test_snapshot_rejects_garbage () =
  (match Engine.snapshot_of_sexp (Sexp.atom "nonsense") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed an atom as a snapshot");
  match
    Engine.snapshot_of_sexp
      (Sexp.list [ Sexp.atom "muerp-engine-snapshot/999" ])
  with
  | Error m ->
      check_bool "names the version" true
        (Astring.String.is_infix ~affix:"muerp-engine-snapshot" m)
  | Ok _ -> Alcotest.fail "parsed an unknown snapshot version"

let test_restore_flag_mismatch_refused () =
  let g = network 5 in
  let reqs = generated 6 g in
  let faults =
    Model.make ~mtbf:30. ~mttr:5. ~targets:Model.Switches ~seed:9 ()
  in
  let captured = ref None in
  let _ =
    Engine.run ~faults
      ~checkpoint:(8., fun _ s -> if !captured = None then captured := Some s)
      g params ~requests:reqs
  in
  let snap = Option.get !captured in
  (* The snapshot tracks element health; a restore into a run without
     any fault machinery cannot honour it. *)
  Alcotest.check_raises "health snapshot needs a faulty run"
    (Invalid_argument
       "Engine.run: restore: snapshot tracks element health but this run \
        has no faults or reconfiguration configured (flags differ)")
    (fun () -> ignore (Engine.run ~restore_from:snap g params ~requests:reqs))

(* A snapshot in the previous format gets the friendly version error,
   both parsed directly and read from an intact checkpoint file. *)
let test_previous_snapshot_version_refused () =
  let _, _, snap = snapshot_of 3 in
  let doc =
    match Engine.snapshot_to_sexp snap with
    | Sexp.List (_ :: fields) ->
        Sexp.list (Sexp.atom "muerp-engine-snapshot/2" :: fields)
    | Sexp.List [] | Sexp.Atom _ -> Alcotest.fail "snapshot is not a list"
  in
  let names_both m =
    Astring.String.is_infix
      ~affix:
        "unsupported snapshot version muerp-engine-snapshot/2 (this build \
         reads muerp-engine-snapshot/3)"
      m
  in
  (match Engine.snapshot_of_sexp doc with
  | Error m -> check_bool "names both versions" true (names_both m)
  | Ok _ -> Alcotest.fail "parsed a /2 snapshot");
  let path = Filename.temp_file "muerp_v2" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match
         Checkpoint.write_with_footer ~path (fun oc ->
             output_string oc "muerp-checkpoint/1\n(config \"v2\")\n";
             Sexp.output oc doc;
             output_char oc '\n')
       with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      match Checkpoint.load ~path ~config:"v2" with
      | Error m ->
          check_bool "the file error names both versions" true (names_both m)
      | Ok _ -> Alcotest.fail "loaded a /2 checkpoint")

(* The scheduled sequences are not in the snapshot, only cursors into
   them; a restore rebuilds them from its own inputs and must refuse,
   naming the sequence, when those inputs differ from the original
   run's — never continue on a different fault or reconfig timeline. *)
let test_restore_schedule_mismatch_refused () =
  let g = network 61 in
  let reqs = generated 62 g in
  let faults seed =
    Model.make ~mtbf:30. ~mttr:5. ~targets:Model.Both ~seed ()
  in
  let switch = List.hd (Graph.switches g) in
  let reconfig =
    [
      { Reconfig.time = 6.; change = Reconfig.Switch_leave switch };
      { Reconfig.time = 15.; change = Reconfig.Switch_join switch };
    ]
  in
  let captured = ref None in
  let _ =
    Engine.run ~faults:(faults 63) ~reconfig
      ~checkpoint:(12., fun _ s -> if !captured = None then captured := Some s)
      g params ~requests:reqs
  in
  let snap = Option.get !captured in
  let refused what affix run =
    match run () with
    | _ -> Alcotest.fail (what ^ ": restore continued")
    | exception Invalid_argument m ->
        check_bool (what ^ ": " ^ m) true (Astring.String.is_infix ~affix m)
  in
  refused "different fault seed" "the fault schedule differs" (fun () ->
      Engine.run ~faults:(faults 64) ~reconfig ~restore_from:snap g params
        ~requests:reqs);
  refused "no faults"
    "the fault schedule differs from the snapshot's (0 events here"
    (fun () -> Engine.run ~reconfig ~restore_from:snap g params ~requests:reqs);
  refused "different reconfig list" "the reconfiguration list differs"
    (fun () ->
      Engine.run ~faults:(faults 63) ~restore_from:snap g params
        ~requests:reqs
        ~reconfig:
          [
            { Reconfig.time = 6.; change = Reconfig.Switch_leave switch };
            { Reconfig.time = 16.; change = Reconfig.Switch_join switch };
          ]);
  (* and the matching inputs still restore *)
  ignore
    (Engine.run ~faults:(faults 63) ~reconfig ~restore_from:snap g params
       ~requests:reqs)

let test_checkpoint_stateful_policy_gate () =
  let g = network 7 in
  let reqs = generated 8 g in
  (* The memo table now travels in the snapshot via state hooks, so
     cached wrappers are checkpoint-safe... *)
  check_bool "cached policies are checkpoint-safe" true
    (Policy.cached Policy.prim).Policy.checkpoint_safe;
  (* ...but wrapping a policy that itself keeps restorable state would
     need composed hooks, which nothing provides — that combination
     must still be refused up front. *)
  let nested = Policy.cached (Policy.cached Policy.prim) in
  check_bool "nested cached is not checkpoint-safe" false
    nested.Policy.checkpoint_safe;
  Alcotest.check_raises "checkpoint with nested cached policy refused"
    (Invalid_argument
       "Engine.run: policy cached-cached-prim keeps hidden mutable state \
        and cannot be checkpointed or restored")
    (fun () ->
      ignore
        (Engine.run
           ~config:(Engine.config nested)
           ~checkpoint:(5., fun _ _ -> ())
           g params ~requests:reqs))

(* A checkpoint cut while the memo table is warm must carry the exact
   cache contents: optimistic reuse means warmth shapes later corridor
   choices, so a cold-cache restore would diverge.  The drill compares
   every restored continuation byte-for-byte against the uninterrupted
   run. *)
let test_cached_policy_restore_equivalence () =
  let g = network 41 in
  let reqs = generated 42 g in
  let config = Engine.config (Policy.cached Policy.prim) in
  let d = Drill.crash_restore ~config ~every:9. g params ~requests:reqs in
  if not (Drill.passed d) then Alcotest.fail (Format.asprintf "%a" Drill.pp d);
  check_bool "cut at least one checkpoint" true (d.Drill.checkpoints > 0)

(* Same property for the hierarchical policy: the skeleton cache
   (costs, paths, stamps, query counter) is exported into the snapshot
   and re-imported on restore. *)
let test_hier_policy_restore_equivalence () =
  let g = network ~switches:30 43 in
  let reqs = generated 44 g in
  let part = Qnet_hier.Partition.kmeans ~regions:4 ~seed:43 g in
  let oracle = Qnet_hier.Oracle.create g params part in
  let policy = Qnet_hier.Serve.policy oracle in
  check_bool "hier policy is checkpoint-safe" true policy.Policy.checkpoint_safe;
  let config = Engine.config policy in
  let d = Drill.crash_restore ~config ~every:9. g params ~requests:reqs in
  if not (Drill.passed d) then Alcotest.fail (Format.asprintf "%a" Drill.pp d);
  check_bool "cut at least one checkpoint" true (d.Drill.checkpoints > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint file layer                                               *)

let with_tmp f =
  let path = Filename.temp_file "muerp_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let expect_error what affix = function
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  | Error m ->
      check_bool
        (Printf.sprintf "%s: %S mentions %S" what m affix)
        true
        (Astring.String.is_infix ~affix m)

let test_checkpoint_file_roundtrip () =
  let _, _, snap = snapshot_of 11 in
  with_tmp (fun path ->
      let digest =
        match Checkpoint.save ~path ~config:"flags" snap with
        | Ok digest -> digest
        | Error m -> Alcotest.fail m
      in
      (* The returned digest is the file's footer identity. *)
      (match Checkpoint.read_with_footer ~path with
      | Ok (_, d) -> check_bool "save returns the footer digest" true (d = digest)
      | Error m -> Alcotest.fail m);
      match Checkpoint.load ~path ~config:"flags" with
      | Error m -> Alcotest.fail m
      | Ok snap' ->
          check_bool "round-trips bit-identically" true
            (String.equal
               (Sexp.to_string (Engine.snapshot_to_sexp snap))
               (Sexp.to_string (Engine.snapshot_to_sexp snap'))))

let test_checkpoint_file_errors () =
  let _, _, snap = snapshot_of 13 in
  with_tmp (fun path ->
      (match Checkpoint.save ~path ~config:"flags" snap with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let good = read_file path in
      (* Config fingerprint mismatch names both fingerprints. *)
      expect_error "fingerprint" "different flags"
        (Checkpoint.load ~path ~config:"other-flags");
      (* One flipped byte in the body fails the checksum. *)
      let corrupt = Bytes.of_string good in
      Bytes.set corrupt (String.length good / 2)
        (if Bytes.get corrupt (String.length good / 2) = 'x' then 'y'
         else 'x');
      write_file path (Bytes.to_string corrupt);
      expect_error "corrupt" "checksum"
        (Checkpoint.load ~path ~config:"flags");
      (* A truncated copy is caught before parsing. *)
      write_file path (String.sub good 0 (String.length good / 2));
      expect_error "truncated" "truncated"
        (Checkpoint.load ~path ~config:"flags");
      (* A torn copy — bytes missing from the middle, footer intact —
         fails the length check. *)
      let n = String.length good in
      write_file path (String.sub good 0 100 ^ String.sub good 110 (n - 110));
      expect_error "torn" "torn or truncated"
        (Checkpoint.load ~path ~config:"flags");
      (* Future format versions are refused by name. *)
      write_file path
        (let swapped =
           Astring.String.cuts ~sep:"muerp-checkpoint/1" good
           |> String.concat "muerp-checkpoint/9"
         in
         swapped);
      (* The checksum covers the header, so rebuild the footer. *)
      let body =
        match Astring.String.cut ~rev:true ~sep:"integrity" (read_file path)
        with
        | Some (body, _) -> body
        | None -> Alcotest.fail "no footer"
      in
      write_file path
        (Printf.sprintf "%sintegrity %s %d\n" body
           (Digest.to_hex (Digest.string body))
           (String.length body));
      expect_error "version" "unsupported version"
        (Checkpoint.load ~path ~config:"flags");
      (* Arbitrary files are named as such. *)
      write_file path "definitely not a checkpoint\n";
      expect_error "junk" "not a muerp checkpoint"
        (Checkpoint.load ~path ~config:"flags");
      expect_error "empty" "empty"
        (write_file path "";
         Checkpoint.load ~path ~config:"flags"));
  expect_error "missing" "cannot read"
    (Checkpoint.load ~path:"/nonexistent/muerp.ckpt" ~config:"flags")

(* ------------------------------------------------------------------ *)
(* Reconfiguration                                                     *)

let test_reconfig_validate () =
  let g, (u0, _), (sa, _) = parallel_network () in
  let at time change = { Reconfig.time; change } in
  (match Reconfig.validate g [ at 1. (Reconfig.Switch_leave 99) ] with
  | Error m -> check_bool "names the event" true (Astring.String.is_infix ~affix:"event 1" m)
  | Ok () -> Alcotest.fail "accepted an out-of-range switch");
  (match Reconfig.validate g [ at 1. (Reconfig.Switch_leave u0) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted a user as a switch target");
  (match
     Reconfig.validate g
       [ at 1. (Reconfig.Provision { switch = sa; qubits = -1 }) ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted negative qubits");
  (match Reconfig.validate g [ at (-1.) (Reconfig.Switch_leave sa) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted a negative time");
  match
    Reconfig.validate g
      [ at 0. (Reconfig.Switch_leave sa); at 3. (Reconfig.Switch_join sa) ]
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_reconfig_sexp_roundtrip () =
  let events =
    [
      { Reconfig.time = 1.5; change = Reconfig.Switch_leave 4 };
      { Reconfig.time = 2.; change = Reconfig.Link_remove 7 };
      { Reconfig.time = 3.; change = Reconfig.Link_add 7 };
      { Reconfig.time = 4.; change = Reconfig.Switch_join 4 };
      {
        Reconfig.time = 5.;
        change = Reconfig.Provision { switch = 9; qubits = 12 };
      };
    ]
  in
  (match Reconfig.of_sexp (Reconfig.to_sexp events) with
  | Ok events' -> check_bool "round-trips" true (events = events')
  | Error m -> Alcotest.fail m);
  match Reconfig.of_sexp (Sexp.list [ Sexp.atom "muerp-reconfig/9" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown reconfig version"

let test_reconfig_drain_recovers_lease () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  let reqs = [ request ~duration:6. 0 [ u0; u1 ] 0. ] in
  let _, outcomes = Engine.run g params ~requests:reqs in
  let used =
    match outcomes with
    | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
        interior_switch tree
    | _ -> Alcotest.fail "baseline run must serve"
  in
  (* Drain the in-use switch mid-lease; the engine must repair onto the
     detour, attribute the recovery to reconfiguration, and keep the
     request served. *)
  let reconfig = [ { Reconfig.time = 2.; change = Reconfig.Switch_leave used } ] in
  let report, outcomes = Engine.run ~reconfig g params ~requests:reqs in
  check_int "served through the drain" 1 report.Engine.served;
  check_int "one reconfig applied" 1 report.Engine.reconfig_applied;
  check_int "one lease recovered by reconfig" 1
    report.Engine.reconfig_recovered;
  check_int "not counted as a fault interruption" 0
    report.Engine.faults_injected;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
      check_int "moved to the detour"
        (if used = sa then sb else sa)
        (interior_switch tree)
  | _ -> Alcotest.fail "expected a served outcome"

let test_reconfig_join_restores_service () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  (* Both switches drained before arrival: the request must wait; the
     join at t=4 re-admits a path and the rescan serves it. *)
  let reqs = [ request ~duration:3. ~patience:10. 0 [ u0; u1 ] 1. ] in
  let reconfig =
    [
      { Reconfig.time = 0.; change = Reconfig.Switch_leave sa };
      { Reconfig.time = 0.; change = Reconfig.Switch_leave sb };
      { Reconfig.time = 4.; change = Reconfig.Switch_join sa };
    ]
  in
  let report, outcomes = Engine.run ~reconfig g params ~requests:reqs in
  check_int "served after the join" 1 report.Engine.served;
  check_int "three reconfigs applied" 3 report.Engine.reconfig_applied;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { start; tree; _ }; _ } ] ->
      check_bool "served no earlier than the join" true (start >= 4.);
      check_int "through the rejoined switch" sa (interior_switch tree)
  | _ -> Alcotest.fail "expected a served outcome"

let test_reconfig_provision_shrink_recovers () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  let reqs = [ request ~duration:6. 0 [ u0; u1 ] 0. ] in
  let _, outcomes = Engine.run g params ~requests:reqs in
  let used =
    match outcomes with
    | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
        interior_switch tree
    | _ -> Alcotest.fail "baseline run must serve"
  in
  (* Shrink the in-use switch to a single qubit mid-lease: the lease no
     longer fits and must be recovered onto the other switch; quota
     accounting has to stay consistent to the end of the run (the
     engine asserts full refunds internally). *)
  let reconfig =
    [
      {
        Reconfig.time = 2.;
        change = Reconfig.Provision { switch = used; qubits = 1 };
      };
    ]
  in
  let report, outcomes = Engine.run ~reconfig g params ~requests:reqs in
  check_int "served through the shrink" 1 report.Engine.served;
  check_int "recovered by reconfig" 1 report.Engine.reconfig_recovered;
  (match outcomes with
  | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
      check_int "moved off the shrunk switch"
        (if used = sa then sb else sa)
        (interior_switch tree)
  | _ -> Alcotest.fail "expected a served outcome");
  (* Growing capacity mid-run is accepted and needs no recovery. *)
  let reconfig =
    [
      {
        Reconfig.time = 2.;
        change = Reconfig.Provision { switch = used; qubits = 8 };
      };
    ]
  in
  let report, _ = Engine.run ~reconfig g params ~requests:reqs in
  check_int "grow applied" 1 report.Engine.reconfig_applied;
  check_int "grow recovers nothing" 0 report.Engine.reconfig_recovered

(* ------------------------------------------------------------------ *)
(* Workload modulators                                                 *)

let test_modulator_intensity () =
  let check_f = Alcotest.(check (float 1e-12)) in
  check_f "flat" 1. (Workload.intensity Workload.Flat 17.);
  let d = Workload.Diurnal { period = 40.; amplitude = 0.5 } in
  check_f "diurnal at 0" 1. (Workload.intensity d 0.);
  check_f "diurnal peak" 1.5 (Workload.intensity d 10.);
  check_f "diurnal trough" 0.5 (Workload.intensity d 30.);
  let f = Workload.Flash { at = 10.; width = 5.; boost = 4. } in
  check_f "before the flash" 1. (Workload.intensity f 9.9);
  check_f "inside the flash" 4. (Workload.intensity f 10.);
  check_f "after the flash" 1. (Workload.intensity f 15.)

let test_modulator_spec_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () ->
      Workload.spec
        ~modulation:(Workload.Diurnal { period = 0.; amplitude = 0.5 })
        ());
  bad (fun () ->
      Workload.spec
        ~modulation:(Workload.Diurnal { period = 10.; amplitude = 1. })
        ());
  bad (fun () ->
      Workload.spec
        ~modulation:(Workload.Flash { at = 0.; width = 0.; boost = 2. })
        ());
  bad (fun () ->
      Workload.spec
        ~modulation:(Workload.Flash { at = 0.; width = 5.; boost = 0. })
        ())

let test_flat_modulation_is_identity () =
  let g = network 17 in
  let plain =
    Workload.generate (Prng.create 5) g (Workload.spec ~requests:30 ())
  in
  let flat =
    Workload.generate (Prng.create 5) g
      (Workload.spec ~requests:30 ~modulation:Workload.Flat ())
  in
  check_bool "flat modulation changes nothing" true (plain = flat)

let test_flash_compresses_arrivals () =
  let g = network 19 in
  let gen m =
    Workload.generate (Prng.create 7) g
      (Workload.spec ~requests:60 ~arrivals:(Workload.Poisson 0.5) ?modulation:m ())
  in
  let plain = gen None in
  let boosted = gen (Some (Workload.Flash { at = 0.; width = 1e9; boost = 4. })) in
  (* A flash covering the whole horizon is a uniform 4x speed-up of the
     same arrival stream: every gap shrinks, order and draws unchanged. *)
  List.iter2
    (fun (p : Workload.request) (b : Workload.request) ->
      check_bool "same users" true (p.users = b.users);
      check_bool "arrivals compressed" true (b.arrival <= p.arrival +. 1e-9))
    plain boosted;
  let span reqs =
    match (reqs, List.rev reqs) with
    | first :: _, last :: _ -> last.Workload.arrival -. first.Workload.arrival
    | _ -> 0.
  in
  check_bool "span shrank about 4x" true
    (span boosted < span plain /. 3.);
  (* Modulated arrivals remain sorted and finite. *)
  let rec sorted = function
    | a :: (b :: _ as tl) ->
        a.Workload.arrival <= b.Workload.arrival && sorted tl
    | _ -> true
  in
  check_bool "still sorted" true (sorted boosted)

(* ------------------------------------------------------------------ *)
(* Crash-recovery drills                                               *)

let drill_must_pass ?faults ?reconfig ?pool ?slot ~every g reqs =
  let overload = Qnet_overload.Admission.make ~max_queue:16 ~rate:1.5 () in
  let config = Engine.config ~overload Policy.prim in
  let d =
    Drill.crash_restore ~config ?faults ?reconfig ?pool ?slot ~every g params
      ~requests:reqs
  in
  if not (Drill.passed d) then
    Alcotest.fail (Format.asprintf "%a" Drill.pp d);
  check_bool "cut at least one checkpoint" true (d.Drill.checkpoints > 0)

let test_drill_plain () =
  let g = network 23 in
  drill_must_pass ~every:9. g (generated 24 g)

let test_drill_under_faults_and_reconfig () =
  let g = network 29 in
  let faults =
    Model.make ~mtbf:40. ~mttr:6. ~targets:Model.Both ~seed:31 ()
  in
  let switch =
    match Graph.switches g with
    | s :: _ -> s
    | [] -> Alcotest.fail "no switches"
  in
  let reconfig =
    [
      { Reconfig.time = 5.; change = Reconfig.Switch_leave switch };
      { Reconfig.time = 20.; change = Reconfig.Switch_join switch };
      {
        Reconfig.time = 12.;
        change = Reconfig.Provision { switch; qubits = 1 };
      };
    ]
  in
  drill_must_pass ~faults ~reconfig ~every:8. g (generated 30 g)

let prop_restore_any_instant =
  QCheck.Test.make ~count:6 ~name:"restore at any instant, any jobs/slot"
    QCheck.(
      triple (QCheck.int_range 0 10_000) (QCheck.oneofl [ 1; 2; 4 ])
        (QCheck.oneofl [ 0.; 2.5 ]))
    (fun (seed, jobs, slot) ->
      let g = network (seed mod 97) in
      let reqs = generated (seed + 1) g in
      let faults =
        Model.make ~mtbf:50. ~mttr:7. ~targets:Model.Both ~seed:(seed + 2) ()
      in
      let run pool =
        let overload = Qnet_overload.Admission.make ~max_queue:12 ~rate:1. () in
        let config = Engine.config ~overload Policy.prim in
        let d =
          Drill.crash_restore ~config ~faults ?pool ~slot ~every:13. g params
            ~requests:reqs
        in
        Drill.passed d
      in
      if jobs = 1 then run None
      else Pool.with_pool ~jobs (fun pool -> run (Some pool)))

(* ------------------------------------------------------------------ *)
(* Binary wire codec                                                   *)

let arbitrary_dumped =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Metrics.D_counter n) (int_range 0 1_000_000_000);
        map (fun x -> Metrics.D_gauge x) (float_range (-1e12) 1e12);
        map2
          (fun (n, sum) counts ->
            Metrics.D_histogram
              {
                Metrics.d_n = n;
                d_sum = sum;
                d_vmin = (if n = 0 then infinity else -3.5);
                d_vmax = (if n = 0 then neg_infinity else sum);
                d_counts = Array.of_list counts;
              })
          (pair (int_range 0 1000) (float_range 0. 1e6))
          (list_size (int_range 0 64) (int_range 0 1000));
      ])

let prop_wire_metrics_roundtrip =
  QCheck.Test.make ~count:100 ~name:"wire metrics-diff round-trip"
    (QCheck.make
       QCheck.Gen.(
         pair
           (small_list (string_size (int_range 0 12)))
           (small_list (pair (string_size (int_range 0 12)) arbitrary_dumped))))
    (fun (removed, upserts) ->
      let payload = Wire.encode_metrics_diff ~removed ~upserts in
      match Wire.of_hex (Wire.to_hex payload) with
      | Error m -> QCheck.Test.fail_report ("hex round-trip: " ^ m)
      | Ok payload' -> (
          if not (String.equal payload payload') then
            QCheck.Test.fail_report "hex armour is not the identity";
          match Wire.decode_metrics_diff payload' with
          | Error m -> QCheck.Test.fail_report ("decode: " ^ m)
          | Ok (removed', upserts') ->
              removed = removed' && upserts = upserts'))

let test_wire_primitives () =
  let enc = Wire.encoder () in
  Wire.put_int enc min_int;
  Wire.put_int enc max_int;
  Wire.put_int enc 0;
  Wire.put_int enc (-1);
  Wire.put_uint enc 0;
  Wire.put_uint enc max_int;
  List.iter (Wire.put_float enc)
    [ 0.; -0.; infinity; neg_infinity; nan; 1e-308; Float.pi ];
  Wire.put_string enc "";
  Wire.put_string enc "hex\x00armoured\xff";
  let dec = Wire.decoder (Wire.contents enc) in
  check_bool "min_int" true (Wire.get_int dec = min_int);
  check_bool "max_int" true (Wire.get_int dec = max_int);
  check_bool "zero" true (Wire.get_int dec = 0);
  check_bool "minus one" true (Wire.get_int dec = -1);
  check_bool "uint zero" true (Wire.get_uint dec = 0);
  check_bool "uint max" true (Wire.get_uint dec = max_int);
  List.iter
    (fun x ->
      (* bit-identical, so NaN and -0. both count *)
      check_bool "float bits" true
        (Int64.equal (Int64.bits_of_float x)
           (Int64.bits_of_float (Wire.get_float dec))))
    [ 0.; -0.; infinity; neg_infinity; nan; 1e-308; Float.pi ];
  check_bool "empty string" true (Wire.get_string dec = "");
  check_bool "binary string" true (Wire.get_string dec = "hex\x00armoured\xff");
  check_bool "fully consumed" true (Wire.remaining dec = 0);
  (* Truncated input surfaces as a friendly result, not an exception. *)
  match Wire.decode_metrics_diff "\x05" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a truncated payload"

(* ------------------------------------------------------------------ *)
(* Delta codec                                                         *)

(* Capture every snapshot a real (faulty, overloaded) run cuts, then
   check the delta laws pairwise: apply (diff base next) reconstructs
   next structurally, and the sexp rendering round-trips. *)
let consecutive_snapshots seed =
  let g = network seed in
  let reqs = generated (seed + 1) g in
  let faults =
    Model.make ~mtbf:40. ~mttr:6. ~targets:Model.Both ~seed:(seed + 2) ()
  in
  let overload = Qnet_overload.Admission.make ~max_queue:12 ~rate:1. () in
  let config = Engine.config ~overload Policy.prim in
  let snaps = ref [] in
  let _ =
    Engine.run ~config ~faults
      ~checkpoint:(6., fun _ snap -> snaps := snap :: !snaps)
      g params ~requests:reqs
  in
  List.rev !snaps

let snapshot_equal a b =
  String.equal
    (Sexp.to_string (Engine.snapshot_to_sexp a))
    (Sexp.to_string (Engine.snapshot_to_sexp b))

let test_delta_reconstructs () =
  let snaps = consecutive_snapshots 47 in
  check_bool "captured at least three snapshots" true (List.length snaps >= 3);
  let rec pairs = function
    | a :: (b :: _ as tl) -> (a, b) :: pairs tl
    | _ -> []
  in
  List.iteri
    (fun i (base, next) ->
      let d = Delta.diff ~base next in
      (match Delta.apply ~base d with
      | Error m -> Alcotest.fail (Printf.sprintf "delta %d: apply: %s" i m)
      | Ok next' ->
          check_bool
            (Printf.sprintf "delta %d reconstructs structurally" i)
            true (compare next next' = 0);
          check_bool
            (Printf.sprintf "delta %d reconstructs byte-identically" i)
            true (snapshot_equal next next'));
      (* sexp round-trip, then apply again from the parsed form *)
      match Delta.of_sexp (Delta.to_sexp d) with
      | Error m -> Alcotest.fail (Printf.sprintf "delta %d: re-parse: %s" i m)
      | Ok d' -> (
          match Delta.apply ~base d' with
          | Error m ->
              Alcotest.fail (Printf.sprintf "delta %d: parsed apply: %s" i m)
          | Ok next' ->
              check_bool
                (Printf.sprintf "parsed delta %d reconstructs" i)
                true (compare next next' = 0)))
    (pairs snaps)

let test_delta_rejects_wrong_base () =
  match consecutive_snapshots 53 with
  | s0 :: s1 :: _ ->
      (* A removal the base does not have means the delta belongs to a
         different predecessor — apply must say so, not guess. *)
      let d = Delta.diff ~base:s0 s1 in
      let phantom =
        { d with Delta.d_events_removed = (9999., 9999) :: d.Delta.d_events_removed }
      in
      (match Delta.apply ~base:s0 phantom with
      | Error m ->
          check_bool "phantom removal is named" true
            (Astring.String.is_infix ~affix:"the base does not have" m)
      | Ok _ -> Alcotest.fail "applied a delta with a phantom removal");
      (* Malformed documents are named, not thrown. *)
      (match Delta.of_sexp (Sexp.atom "junk") with
      | Error m ->
          check_bool "names the malformed document" true
            (Astring.String.is_infix ~affix:"malformed delta" m)
      | Ok _ -> Alcotest.fail "parsed junk as a delta");
      (match
         Delta.of_sexp (Sexp.list [ Sexp.atom "muerp-snapshot-delta/1" ])
       with
      | Error m ->
          check_bool "names the previous version" true
            (Astring.String.is_infix ~affix:"unsupported delta version" m)
      | Ok _ -> Alcotest.fail "parsed a /1 delta");
      (match
         Delta.of_sexp (Sexp.list [ Sexp.atom "muerp-snapshot-delta/999" ])
       with
      | Error m ->
          check_bool "names the version" true
            (Astring.String.is_infix ~affix:"unsupported delta version" m)
      | Ok _ -> Alcotest.fail "parsed an unknown delta version")
  | _ -> Alcotest.fail "expected at least three snapshots"

(* ------------------------------------------------------------------ *)
(* Incremental chains: crash drills, journal replay, corruption        *)

let with_tmp_dir f =
  let dir = Filename.temp_dir "muerp_chain" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let chain_drill_must_pass ?inject ?pool ?slot ~cadence seed =
  let g = network seed in
  let reqs = generated (seed + 1) g in
  let faults =
    Model.make ~mtbf:45. ~mttr:6. ~targets:Model.Both ~seed:(seed + 2) ()
  in
  let overload = Qnet_overload.Admission.make ~max_queue:14 ~rate:1.2 () in
  let config = Engine.config ~overload Policy.prim in
  with_tmp_dir (fun dir ->
      let d =
        Drill.chain_restore ~config ~faults ?inject ?pool ?slot ~every:8.
          ~cadence ~dir g params ~requests:reqs
      in
      if not (Drill.chain_passed d) then
        Alcotest.fail (Format.asprintf "%a" Drill.pp_chain d);
      check_bool "exercised several crash points" true (d.Drill.chain_captures >= 3);
      d)

let test_chain_drill_clean () =
  let d = chain_drill_must_pass ~cadence:3 59 in
  check_bool "no capture degraded on a clean chain" true
    (d.Drill.chain_degraded = 0)

let test_chain_drill_torn_write () =
  (* Truncating the newest file of every capture simulates the
     mid-write crash; every crash point must still complete
     byte-identically (from an earlier state) or fail friendly. *)
  List.iter
    (fun n -> ignore (chain_drill_must_pass ~inject:(Drill.Torn_write n) ~cadence:3 61))
    [ 1; 7; 64; 10_000 ]

let test_chain_drill_bit_flip () =
  List.iter
    (fun bit ->
      ignore (chain_drill_must_pass ~inject:(Drill.Bit_flip bit) ~cadence:3 67))
    [ 3; 1009; 65537 ]

let prop_chain_restore_any_instant =
  QCheck.Test.make ~count:4 ~name:"chain restore at any cut, any jobs/slot"
    QCheck.(
      triple (int_range 0 10_000) (oneofl [ 1; 2; 4 ]) (oneofl [ 0.; 2.5 ]))
    (fun (seed, jobs, slot) ->
      let run pool =
        ignore
          (chain_drill_must_pass ?pool ~slot ~cadence:((seed mod 4) + 2)
             (seed mod 89));
        true
      in
      if jobs = 1 then run None
      else Pool.with_pool ~jobs (fun pool -> run (Some pool)))

(* The corruption matrix: build a real chain, then truncate each file
   at every byte boundary and flip random bits, checking that recovery
   always either lands on one of the states the writer actually cut
   (structural equality) or fails with a message naming the file —
   never an exception. *)
let test_chain_corruption_matrix () =
  with_tmp_dir (fun dir ->
      let g = network ~users:4 ~switches:10 71 in
      let wspec =
        Workload.spec ~requests:16 ~arrivals:(Workload.Poisson 0.6) ()
      in
      let reqs = Workload.generate (Prng.create 72) g wspec in
      let root = Filename.concat dir "m.ckpt" in
      let jpath = Chain.journal_path root in
      (* Cadence above the cut count: the chain never rebases, so the
         delta files are guaranteed to still exist at run end. *)
      let writer =
        Chain.create ~path:root ~config:"matrix" ~every:100 ~journal:jpath ()
      in
      let states = ref [] in
      let sink _ snap =
        match Chain.cut writer snap with
        | Ok _ -> states := snap :: !states
        | Error m -> Alcotest.fail m
      in
      let _ =
        Engine.run ~on_transition:(Chain.on_transition writer)
          ~checkpoint:(5., sink) g params ~requests:reqs
      in
      Chain.close writer;
      check_bool "cut a real chain" true (List.length !states >= 2);
      check_bool "chain has deltas" true (Sys.file_exists (Chain.delta_path root 1));
      let files =
        List.filter Sys.file_exists
          (root :: jpath :: List.map (Chain.delta_path root) [ 1; 2; 3; 4 ])
      in
      let originals = List.map (fun p -> (p, read_file p)) files in
      let restore_all () =
        List.iter (fun (p, data) -> write_file p data) originals
      in
      let attempts = ref 0 and degraded = ref 0 in
      let recover_must_be_sane ~mutated () =
        incr attempts;
        match Chain.recover ~path:root ~config:"matrix" ~journal:jpath () with
        | exception e ->
            Alcotest.fail
              (Printf.sprintf "recovery raised %s after corrupting %s"
                 (Printexc.to_string e) mutated)
        | Error m ->
            incr degraded;
            check_bool
              (Printf.sprintf "error names a file (%s)" m)
              true
              (Astring.String.is_infix ~affix:dir m)
        | Ok r ->
            if r.Chain.r_warnings <> [] then incr degraded;
            check_bool
              (Printf.sprintf "recovered state after corrupting %s is one \
                               the writer cut" mutated)
              true
              (List.exists
                 (fun s -> compare s r.Chain.r_snapshot = 0)
                 !states)
      in
      List.iter
        (fun (path, data) ->
          let n = String.length data in
          (* Truncate at every byte boundary. *)
          for keep = 0 to n - 1 do
            restore_all ();
            write_file path (String.sub data 0 keep);
            recover_must_be_sane ~mutated:(Filename.basename path) ()
          done;
          (* Deterministic pseudo-random bit flips across the file. *)
          let rng = Prng.create (Hashtbl.hash path) in
          for _ = 1 to 40 do
            restore_all ();
            let bit = Prng.int rng (8 * n) in
            let b = Bytes.of_string data in
            let i = bit / 8 and j = bit mod 8 in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
            write_file path (Bytes.to_string b);
            recover_must_be_sane ~mutated:(Filename.basename path) ()
          done)
        originals;
      restore_all ();
      check_bool "matrix exercised many mutations" true (!attempts > 100);
      check_bool "most mutations degraded detectably" true (!degraded > 0))

(* Torn journal tails are a warning plus fewer records, never a loss of
   the prefix. *)
let test_journal_torn_tail () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "t.journal" in
      let w =
        match Journal.create ~path ~config:"c" ~head:"h" ~index:2 with
        | Ok w -> w
        | Error m -> Alcotest.fail m
      in
      let records =
        List.init 50 (fun i ->
            if i mod 3 = 0 then
              Engine.T_admit { at = float_of_int i; lid = i; request = i * 7 }
            else if i mod 3 = 1 then
              Engine.T_release { at = float_of_int i; lid = i - 1 }
            else
              Engine.T_fault
                { at = float_of_int i; link = i mod 2 = 0; element = i; up = false })
      in
      List.iter (Journal.append w) records;
      ignore (Journal.close w);
      (match Journal.read ~path with
      | Error m -> Alcotest.fail m
      | Ok c ->
          check_bool "all records back" true (c.Journal.j_records = records);
          check_bool "chain head kept" true
            (c.Journal.j_head = "h" && c.Journal.j_index = 2);
          check_bool "clean tail" true (c.Journal.j_torn = None));
      let data = read_file path in
      (* Cut the file mid-record: the prefix must survive, the tail is
         reported torn. *)
      write_file path (String.sub data 0 (String.length data - 3));
      (match Journal.read ~path with
      | Error m -> Alcotest.fail ("torn tail must not be fatal: " ^ m)
      | Ok c ->
          check_bool "prefix survives" true
            (List.length c.Journal.j_records = List.length records - 1);
          check_bool "torn tail reported" true (c.Journal.j_torn <> None));
      (* The verifier accepts a replay that outlives a torn journal but
         rejects divergence. *)
      let v = Journal.verifier (List.filteri (fun i _ -> i < 10) records) in
      List.iter (Journal.observe v) records;
      (match Journal.finish v with
      | Ok n -> check_int "verified the journalled prefix" 10 n
      | Error m -> Alcotest.fail m);
      let v = Journal.verifier records in
      Journal.observe v (Engine.T_release { at = 99.; lid = 4242 });
      match Journal.finish v with
      | Error m ->
          check_bool "divergence is reported" true
            (Astring.String.is_infix ~affix:"diverged" m)
      | Ok _ -> Alcotest.fail "verifier accepted a diverging replay")

(* ------------------------------------------------------------------ *)
(* Streaming writes at scale                                           *)

(* A snapshot carrying 100k-switch quota/residual sections round-trips
   through the streamed writer without materialising in memory as one
   string, and bit-identically. *)
let test_checkpoint_streams_large_snapshot () =
  let _, _, snap = snapshot_of 73 in
  let big = List.init 100_000 (fun i -> (i, (i * 7 mod 13) + 1)) in
  let snap = { snap with Engine.s_quota = big; s_residual = big } in
  with_tmp (fun path ->
      (match Checkpoint.save ~path ~config:"large" snap with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      match Checkpoint.load ~path ~config:"large" with
      | Error m -> Alcotest.fail m
      | Ok snap' ->
          check_bool "100k-switch snapshot round-trips structurally" true
            (compare snap snap' = 0))

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "resilience"
    [
      ( "snapshot",
        [
          Alcotest.test_case "codec round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_snapshot_rejects_garbage;
          Alcotest.test_case "flag mismatch refused" `Quick
            test_restore_flag_mismatch_refused;
          Alcotest.test_case "stateful policy gate" `Quick
            test_checkpoint_stateful_policy_gate;
          Alcotest.test_case "cached policy restore equivalence" `Quick
            test_cached_policy_restore_equivalence;
          Alcotest.test_case "hier policy restore equivalence" `Quick
            test_hier_policy_restore_equivalence;
          Alcotest.test_case "previous version refused" `Quick
            test_previous_snapshot_version_refused;
          Alcotest.test_case "schedule mismatch refused" `Quick
            test_restore_schedule_mismatch_refused;
        ] );
      ( "checkpoint-file",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_file_roundtrip;
          Alcotest.test_case "friendly errors" `Quick
            test_checkpoint_file_errors;
          Alcotest.test_case "streams 100k-switch snapshots" `Quick
            test_checkpoint_streams_large_snapshot;
        ] );
      ( "wire",
        [
          Alcotest.test_case "primitives" `Quick test_wire_primitives;
          qc prop_wire_metrics_roundtrip;
        ] );
      ( "delta",
        [
          Alcotest.test_case "diff/apply reconstructs" `Quick
            test_delta_reconstructs;
          Alcotest.test_case "rejects wrong base and junk" `Quick
            test_delta_rejects_wrong_base;
        ] );
      ( "chain",
        [
          Alcotest.test_case "clean crash drill" `Quick test_chain_drill_clean;
          Alcotest.test_case "torn-write injection" `Quick
            test_chain_drill_torn_write;
          Alcotest.test_case "bit-flip injection" `Quick
            test_chain_drill_bit_flip;
          Alcotest.test_case "corruption matrix" `Quick
            test_chain_corruption_matrix;
          Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
          qc prop_chain_restore_any_instant;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "validate" `Quick test_reconfig_validate;
          Alcotest.test_case "sexp round-trip" `Quick
            test_reconfig_sexp_roundtrip;
          Alcotest.test_case "drain recovers lease" `Quick
            test_reconfig_drain_recovers_lease;
          Alcotest.test_case "join restores service" `Quick
            test_reconfig_join_restores_service;
          Alcotest.test_case "provision shrink recovers" `Quick
            test_reconfig_provision_shrink_recovers;
        ] );
      ( "modulators",
        [
          Alcotest.test_case "intensity" `Quick test_modulator_intensity;
          Alcotest.test_case "spec validation" `Quick
            test_modulator_spec_validation;
          Alcotest.test_case "flat is identity" `Quick
            test_flat_modulation_is_identity;
          Alcotest.test_case "flash compresses arrivals" `Quick
            test_flash_compresses_arrivals;
        ] );
      ( "drill",
        [
          Alcotest.test_case "plain" `Quick test_drill_plain;
          Alcotest.test_case "faults + reconfig" `Quick
            test_drill_under_faults_and_reconfig;
          qc prop_restore_any_instant;
        ] );
    ]
