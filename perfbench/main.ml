(* The muerp serving benchmark: runs one workload through
   [Qnet_online.Engine.run] as a batch replay and prints end-to-end and
   per-layer metrics, the last line as one JSON object.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

   Every layer is timed from outside, by wrapping its public entry
   point: the policy's [route] field, the [?checkpoint] sink,
   [?on_transition], topology generation, [Workload.generate] and the
   hierarchical oracle's set-up.  See README.md for what each metric
   means and which workload it belongs to. *)

module Engine = Qnet_online.Engine
module Policy = Qnet_online.Policy
module Workload = Qnet_online.Workload
module Metrics = Qnet_telemetry.Metrics
module Checkpoint = Qnet_resilience.Checkpoint

type topology = Waxman | Continent

type workload = {
  name : string;
  topology : topology;
  switches : int;
  users : int;
  qubits : int;  (** Memory qubits per switch. *)
  samples : int;  (** Independent request streams per run. *)
  sample_requests : int;  (** Requests per stream. *)
  arrivals : Workload.arrivals;
  churn : bool;
      (** Faults (MTBF 40, MTTR 5, repair), a queue limit and a token
          bucket that sheds a minority of arrivals, and a checkpoint cut
          every [checkpoint_every] t. *)
  jobs : int;  (** Pool size; above 1 the engine speculates in parallel. *)
}

(* Each workload stresses a different layer; README.md gives the
   reasons and the measured shares.  A stream is short enough that a
   run serves every stream at least once inside its time budget. *)
let workloads =
  [
    (* Routing is nearly all of Engine.run: the search layer's workload. *)
    {
      name = "flat-waxman1k";
      topology = Waxman;
      switches = 1000;
      users = 10;
      qubits = 8;
      samples = 8;
      sample_requests = 150;
      arrivals = Workload.Poisson 0.5;
      churn = false;
      jobs = 1;
    };
    (* Checkpoint saves dominate; faults and overload control act.  The
       streams are long because save cost grows with run length. *)
    {
      name = "churn-ckpt100";
      topology = Waxman;
      switches = 100;
      users = 20;
      qubits = 4;
      samples = 6;
      sample_requests = 800;
      arrivals = Workload.Poisson 2.;
      churn = true;
      jobs = 1;
    };
    (* The only workload on the hierarchical router, and the largest
       graph.  With 6 qubits per switch the long-haul fibers between
       regions fill up now and then, so segments are recomputed and a
       few queries fall back to the flat search; with 4, so many do that
       the route times spread too far between seeds for a gate.  Its
       median route call sits on a steep part of a two-mode distribution,
       so it takes many distinct requests per seed to steady it: 20
       streams, each timed about twice in a run. *)
    {
      name = "continent-hier10k";
      topology = Continent;
      switches = 10_000;
      users = 200;
      qubits = 6;
      samples = 20;
      sample_requests = 100;
      arrivals = Workload.Poisson 2.;
      churn = false;
      jobs = 1;
    };
    (* The only workload on the speculative parallel path. *)
    {
      name = "burst-jobs2";
      topology = Waxman;
      switches = 200;
      users = 20;
      qubits = 4;
      samples = 8;
      sample_requests = 400;
      arrivals = Workload.Batched { period = 5.; size = 8 };
      churn = false;
      jobs = 2;
    };
  ]

let params = Qnet_core.Params.create ~alpha:1e-4 ~q:0.9 ()
let checkpoint_every = 10.

(* Set-up repeats: at least [setup_min_reps], and until [setup_min_s]
   seconds of set-up have run, so a cheap set-up is timed many times. *)
let setup_min_reps = 3
let setup_min_s = 4.
let setup_max_reps = 25

(* The network is part of a workload and fixed; the seed draws the
   traffic: [samples] independent request streams (and, under churn,
   fault schedules), so one run averages over several of them.  The
   offsets mirror [muerp traffic], whose workload and fault streams
   start at [--seed + 8191] and [--seed + 40961]. *)
let topology_seed = 1
let sample_seed seed i = (seed * 1000) + i
let workload_seed s = s + 8_191
let fault_seed s = s + 40_961

(* ------------------------------------------------------------------ *)
(* Set-up layers                                                        *)

let gen_topology w =
  let spec =
    Qnet_topology.Spec.create ~n_users:w.users ~n_switches:w.switches
      ~qubits_per_switch:w.qubits ()
  in
  let rng = Qnet_util.Prng.create topology_seed in
  match w.topology with
  | Waxman -> (Qnet_topology.Generate.(run waxman) rng spec, None)
  | Continent ->
      let params =
        {
          Qnet_topology.Continent.default_params with
          regions = Qnet_hier.Partition.auto_regions w.switches;
        }
      in
      let g, labels =
        Qnet_topology.Continent.generate_labeled ~params rng spec
      in
      (g, Some labels)

(* A fresh policy: [hier-prim] on a labelled (continent) network, else
   [prim].  The hierarchical oracle's segment cache shapes the routes it
   finds, so no two runs may share one. *)
let make_policy g labels =
  match labels with
  | Some labels ->
      Qnet_hier.Serve.policy
        (Qnet_hier.Oracle.create g params
           (Qnet_hier.Partition.of_assignment g labels))
  | _ -> Policy.prim

let gen_samples w seed g =
  Array.init w.samples (fun i ->
      Workload.generate
        (Qnet_util.Prng.create (workload_seed (sample_seed seed i)))
        g
        (Workload.spec ~requests:w.sample_requests ~arrivals:w.arrivals ()))

type setup = { topology_s : float; policy_s : float; workload_s : float }

let setup_total s = s.topology_s +. s.policy_s +. s.workload_s

(* One full set-up, each phase timed, and traced as a span when
   [parent] is given. *)
let set_up ?parent w seed =
  let phase name f =
    let timed _ =
      let t0 = Probe.now () in
      let r = f () in
      (r, Probe.now () -. t0)
    in
    match parent with
    | None -> timed ()
    | Some parent -> Probe.Spans.with_span ~name ~parent timed
  in
  let (g, labels), topology_s =
    phase "setup.topology" (fun () -> gen_topology w)
  in
  let _, policy_s = phase "setup.policy" (fun () -> make_policy g labels) in
  let samples, workload_s =
    phase "setup.workload" (fun () -> gen_samples w seed g)
  in
  (g, labels, samples, { topology_s; policy_s; workload_s })

(* ------------------------------------------------------------------ *)
(* One engine run, every layer wrapped                                  *)

let route_calls = Probe.Calls.create ()

(* The wrapped policy keeps every field but [route], so the engine
   takes the same code path (speculation, checkpoint safety, policy
   state hooks) as with the bare policy. *)
let wrap (p : Policy.t) =
  {
    p with
    route =
      (fun ~exclude ~budget g prm ~capacity ~users ->
        let t0 = Probe.now () in
        match p.route ~exclude ~budget g prm ~capacity ~users with
        | r ->
            Probe.Calls.record route_calls ~ok:(Option.is_some r) t0
              (Probe.now ());
            r
        | exception e ->
            Probe.Calls.record route_calls ~ok:false t0 (Probe.now ());
            raise e);
  }

type run = {
  run_s : float;
  report : Engine.report;
  table : string;
  rates : float list;  (** Eq. (2) rate of every served request. *)
  routes : (float * float) array;
  routes_ok : int;
  saves : (float * float) array;
  cut_bytes : int list;  (** File size after each cut, newest first. *)
  last_cut : float option;
  transitions : int;
  minor_words : float;
  major_collections : int;
  counters : (string * int) list;  (** Telemetry; traced runs only. *)
}

let ckpt_path workdir = Filename.concat workdir "engine.ckpt"
let fingerprint w s = Printf.sprintf "perfbench %s sample-seed=%d" w.name s

let counter_values () =
  List.filter_map
    (function name, Metrics.Counter_v v -> Some (name, v) | _ -> None)
    (Metrics.snapshot ())

(* Serve stream [i] of [seed] once.  With [parent], telemetry counters
   are taken for this run alone and its layers are recorded as spans. *)
let engine_run ?parent ~workdir ~pool w seed i g labels reqs =
  let s = sample_seed seed i in
  let saves = ref [] and cut_bytes = ref [] and last_cut = ref None in
  let checkpoint =
    if not w.churn then None
    else
      Some
        ( checkpoint_every,
          fun at snap ->
            let t0 = Probe.now () in
            (match
               Checkpoint.save ~path:(ckpt_path workdir)
                 ~config:(fingerprint w s) snap
             with
            | Ok _ -> ()
            | Error m -> failwith m);
            saves := (t0, Probe.now ()) :: !saves;
            cut_bytes :=
              (Unix.stat (ckpt_path workdir)).Unix.st_size :: !cut_bytes;
            last_cut := Some at )
  in
  let transitions = ref 0 in
  let on_transition _ = incr transitions in
  let overload, faults =
    if w.churn then
      ( Qnet_overload.Admission.make ~max_queue:8 ~rate:1.8 ~burst:4. (),
        Some
          (Qnet_faults.Model.make ~mtbf:40. ~mttr:5.
             ~targets:Qnet_faults.Model.Both ~seed:(fault_seed s) ()) )
    else (Qnet_overload.Admission.none, None)
  in
  let config =
    Engine.config ~recovery:Engine.Repair ~overload
      (wrap (make_policy g labels))
  in
  Probe.Calls.reset route_calls;
  if parent <> None then Metrics.reset ();
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let t0 = Probe.now () in
  let report, outcomes =
    Engine.run ~config ?faults ?pool ~on_transition ?checkpoint g params
      ~requests:reqs
  in
  let t1 = Probe.now () in
  let gc1 = Gc.quick_stat () in
  let routes, routes_ok = Probe.Calls.collect route_calls in
  let saves = Array.of_list (List.rev !saves) in
  Option.iter
    (fun parent ->
      let run = Probe.Spans.add ~name:"engine.run" ~parent t0 t1 in
      let child name (a, b) = ignore (Probe.Spans.add ~name ~parent:run a b) in
      Array.iter (child "policy.route") routes;
      Array.iter (child "checkpoint.save") saves)
    parent;
  {
    run_s = t1 -. t0;
    report;
    table = Qnet_util.Table.to_string (Engine.report_table report);
    rates =
      List.filter_map
        (fun (o : Engine.outcome) ->
          match o.resolution with Served { rate; _ } -> Some rate | _ -> None)
        outcomes;
    routes;
    routes_ok;
    saves;
    cut_bytes = !cut_bytes;
    last_cut = !last_cut;
    transitions = !transitions;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    counters = (if parent <> None then counter_values () else []);
  }

(* Engine.run minus the part its route and checkpoint children cover. *)
let engine_self r =
  let children = Array.append r.routes r.saves in
  Array.sort compare children;
  r.run_s -. Probe.covered children

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type measured = {
  setups : setup array;
  topology_heap_mb : float;
  reps : run array array;  (** Timed runs of each stream. *)
  traced : run array;  (** One traced run of each stream. *)
  overhead : float array;
      (** Per stream, traced run time over that of the untraced run just
          before it. *)
  peak_rss_mb : float;  (** [VmHWM] after the timed runs. *)
  top_heap_mb : float;  (** GC top heap after the timed runs. *)
  load : float * bool;  (** Time to load the last cut, and its check. *)
  serial : run option;
      (** Stream 0 served without the pool, on parallel workloads. *)
}

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = Array.fold_left (fun acc x -> acc +. f x) 0. xs
let median_of f xs = Probe.median (Array.map f xs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> fi kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

let measure w seed seconds workdir pool =
  (* Set-up, several times; the first also gives the topology's heap. *)
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let setups = ref [] and topology_heap_mb = ref 0. and last = ref None in
  let n = ref 0 and total = ref 0. in
  while
    !n < setup_min_reps || (!total < setup_min_s && !n < setup_max_reps)
  do
    last := None;
    Gc.compact ();
    let g, labels, samples, s = set_up w seed in
    if !n = 0 then
      topology_heap_mb :=
        words_mb ((Gc.quick_stat ()).Gc.top_heap_words - heap0);
    setups := s :: !setups;
    last := Some (g, labels, samples);
    incr n;
    total := !total +. setup_total s
  done;
  let g, labels, samples = Option.get !last in
  let k = Array.length samples in
  (* Timed batch replays, cycling over the streams until each stream has
     run once and the time is up, less one pass for the paired runs
     below. *)
  let reps = Array.make k [] and n = ref 0 and t_start = Probe.now () in
  let pass_s () =
    Array.fold_left
      (fun acc rs -> match rs with r :: _ -> acc +. r.run_s | [] -> acc)
      0. reps
  in
  while !n < k || Probe.now () -. t_start +. pass_s () < seconds do
    let i = !n mod k in
    reps.(i) <-
      engine_run ~workdir ~pool w seed i g labels samples.(i) :: reps.(i);
    incr n
  done;
  (* The process has now run one workload; what follows only checks and
     traces it. *)
  let peak_rss_mb = peak_rss_mb () in
  let top_heap_mb = words_mb (Gc.quick_stat ()).Gc.top_heap_words in
  (* One traced run of each stream, from a fresh set-up, each right after
     an untraced run of the same stream: the pair gives the telemetry
     overhead without the host's drift between them, and the untraced
     run counts as one more timed run. *)
  let paired =
    Probe.Spans.with_span ~name:"run.traced" ~parent:(-1) (fun root ->
        let tg, tlabels, tsamples, _ = set_up ~parent:root w seed in
        Array.mapi
          (fun i reqs ->
            let plain = engine_run ~workdir ~pool w seed i tg tlabels reqs in
            Metrics.set_enabled true;
            let traced =
              Fun.protect
                ~finally:(fun () -> Metrics.set_enabled false)
                (fun () ->
                  engine_run ~parent:root ~workdir ~pool w seed i tg tlabels
                    reqs)
            in
            (plain, traced))
          tsamples)
  in
  let traced = Array.map snd paired in
  (* Load the last cut back, outside any run. *)
  let load =
    match traced.(k - 1).last_cut with
    | None -> (0., true)
    | Some at -> (
        let t0 = Probe.now () in
        let r =
          Checkpoint.load ~path:(ckpt_path workdir)
            ~config:(fingerprint w (sample_seed seed (k - 1)))
        in
        let dt = Probe.now () -. t0 in
        match r with
        | Ok snap -> (dt, Engine.snapshot_at snap = at)
        | Error m ->
            Printf.printf "check: checkpoint load failed: %s\n" m;
            (dt, false))
  in
  let serial =
    Option.map
      (fun _ -> engine_run ~workdir ~pool:None w seed 0 g labels samples.(0))
      pool
  in
  {
    setups = Array.of_list !setups;
    topology_heap_mb = !topology_heap_mb;
    reps =
      Array.mapi
        (fun i rs -> Array.of_list (List.rev (fst paired.(i) :: rs)))
        reps;
    traced;
    overhead =
      Array.map (fun (plain, traced) -> ratio traced.run_s plain.run_s) paired;
    peak_rss_mb;
    top_heap_mb;
    load;
    serial;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* [metrics] are (name, value, unit, note); [note] names the samples
   behind the value and goes to the human-readable lines only. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "metric %-34s %22s %-6s %s\n" name (json_number v) unit
        note)
    metrics;
  let body =
    List.map
      (fun (name, v, unit, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " body)

let report m w seed trace =
  let k = Array.length m.traced in
  let all_reps = Array.concat (Array.to_list m.reps) in
  let nreps = Array.length all_reps in
  (* A layer's cost for one pass over the streams: the sum over streams
     of the median over that stream's timed runs. *)
  let per_pass f = sum (median_of f) m.reps in
  let tsum f = sum f m.traced in
  let counter name =
    tsum (fun r ->
        match List.assoc_opt name r.counters with Some v -> fi v | None -> 0.)
  in
  let rsum f = tsum (fun r -> fi (f r.report)) in
  let served = rsum (fun r -> r.Engine.served) in
  let arrived = rsum (fun r -> r.Engine.arrived) in
  let per_served name = ratio (counter name) served in
  let route_s r = Probe.total r.routes in
  let save_s r = Probe.total r.saves in
  let pass_run_s = per_pass (fun r -> r.run_s) in
  let checks =
    [
      ( "every timed report equals the traced report of its stream",
        Array.for_all2
          (fun rs t -> Array.for_all (fun r -> r.table = t.table) rs)
          m.reps m.traced );
      ("every request arrives", arrived = fi (k * w.sample_requests));
      ("the last checkpoint loads back", snd m.load);
      ( "the pool and serial reports agree",
        match m.serial with
        | None -> true
        | Some s -> s.table = m.traced.(0).table );
    ]
  in
  List.iter
    (fun (what, ok) ->
      Printf.printf "check: %s: %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let correct = List.for_all snd checks in
  Array.iteri
    (fun i t ->
      Printf.printf
        "stream %d: seed %d, served %d/%d, %d timed runs, Engine.run median \
         %.6f s, traced %.6f s\n"
        i (sample_seed seed i) t.report.Engine.served t.report.Engine.arrived
        (Array.length m.reps.(i))
        (median_of (fun r -> r.run_s) m.reps.(i))
        t.run_s)
    m.traced;
  (* Every arrived request is an operation.  A request the engine turns
     away (rejected, expired, shed, interrupted) was handled correctly;
     [acceptance_ratio] and the overload and fault counts report those.
     The operations of a run fail when a check does. *)
  let all_runs = Array.append all_reps m.traced in
  let attempted = sum (fun r -> fi r.report.Engine.arrived) all_runs in
  let failed = if correct then 0. else attempted in
  let reps_note = Printf.sprintf "median of %d runs" nreps in
  let pass_note = Printf.sprintf "per pass over %d streams" k in
  let setup_note =
    Printf.sprintf "median of %d set-ups" (Array.length m.setups)
  in
  let traced_note = Printf.sprintf "%d traced runs" k in
  (* Route-call percentiles per stream, over all of that stream's timed
     runs, then the median over streams: one stream whose runs met a
     slow spell of the host does not move the figure. *)
  let stream_ms =
    Array.map
      (fun rs ->
        Array.concat
          (Array.to_list
             (Array.map
                (fun r -> Array.map (fun (a, b) -> (b -. a) *. 1e3) r.routes)
                rs)))
      m.reps
  in
  let route_pct p = median_of (fun ms -> Probe.percentile ms p) stream_ms in
  let calls_note =
    let counts = Array.map Array.length stream_ms in
    Printf.sprintf "median over %d streams of %d-%d route calls each" k
      (Array.fold_left min max_int counts)
      (Array.fold_left max 0 counts)
  in
  let rates = List.concat_map (fun r -> r.rates) (Array.to_list m.traced) in
  let end_to_end =
    [
      ( "served_per_s",
        median_of (fun r -> ratio (fi r.report.Engine.served) r.run_s) all_reps,
        "req/s",
        reps_note );
      ("route_p50_ms", route_pct 0.5, "ms", calls_note);
      ("route_p99_ms", route_pct 0.99, "ms", calls_note);
      ("setup_s", median_of setup_total m.setups, "s", setup_note);
      ("peak_rss_mb", m.peak_rss_mb, "MB", "VmHWM after the timed runs");
      ("acceptance_ratio", ratio served arrived, "ratio", traced_note);
      ( "mean_neg_log_rate",
        ratio
          (List.fold_left (fun acc r -> acc -. log r) 0. rates)
          (fi (List.length rates)),
        "nats",
        Printf.sprintf "mean -ln Eq. (2) rate over %d served"
          (List.length rates) );
    ]
  in
  let relaxations = counter "graph.dijkstra.edge_relaxations" in
  let segment_sssp = counter "hier.segment_sssp" in
  let segment_hits = counter "hier.segment_hits" in
  let calls = tsum (fun r -> fi (Array.length r.routes)) in
  let cuts = List.concat_map (fun r -> r.cut_bytes) (Array.to_list m.traced) in
  let per_layer =
    [
      ( "topology.gen_s",
        median_of (fun s -> s.topology_s) m.setups,
        "s",
        setup_note );
      ("topology.heap_mb", m.topology_heap_mb, "MB", "first set-up");
      ( "hier.setup_s",
        (if w.topology = Continent then median_of (fun s -> s.policy_s) m.setups else 0.),
        "s",
        setup_note );
      ( "hier.segment_sssp_per_served",
        ratio segment_sssp served,
        "count",
        traced_note );
      ( "hier.segment_hit_ratio",
        ratio segment_hits (segment_hits +. segment_sssp),
        "ratio",
        traced_note );
      ( "hier.fallback_ratio",
        ratio (counter "hier.fallbacks") (counter "hier.queries"),
        "ratio",
        traced_note );
      ( "workload.gen_s",
        median_of (fun s -> s.workload_s) m.setups,
        "s",
        setup_note );
      ("policy.route_s", per_pass route_s, "s", pass_note);
      ("policy.calls_per_arrival", ratio calls arrived, "count", traced_note);
      ( "policy.success_ratio",
        ratio (tsum (fun r -> fi r.routes_ok)) calls,
        "ratio",
        traced_note );
      ( "dijkstra.runs_per_served",
        per_served "graph.dijkstra.runs",
        "count",
        traced_note );
      ( "dijkstra.heap_pops_per_served",
        per_served "graph.dijkstra.heap_pops",
        "count",
        traced_note );
      ( "dijkstra.relaxations_per_served",
        ratio relaxations served,
        "count",
        traced_note );
      ( "routing.sssp_runs_per_served",
        per_served "core.routing.sssp_runs",
        "count",
        traced_note );
      ( "routing.channels_built_per_served",
        per_served "core.routing.channels_built",
        "count",
        traced_note );
      ( "dijkstra.ns_per_relaxation",
        ratio (per_pass route_s *. 1e9) relaxations,
        "ns",
        "untraced route time / traced relaxations" );
      ("engine.self_s", per_pass engine_self, "s", pass_note);
      ( "engine.transitions",
        tsum (fun r -> fi r.transitions),
        "count",
        traced_note );
      ( "engine.retries_per_arrival",
        ratio (rsum (fun r -> r.Engine.retries)) arrived,
        "count",
        traced_note );
      ( "faults.interrupted",
        rsum (fun r -> r.Engine.leases_interrupted),
        "count",
        traced_note );
      ( "faults.recovered_ratio",
        ratio
          (rsum (fun r -> r.Engine.leases_recovered))
          (rsum (fun r -> r.Engine.leases_interrupted)),
        "ratio",
        traced_note );
      ( "overload.shed_ratio",
        ratio (rsum (fun r -> r.Engine.shed)) arrived,
        "ratio",
        traced_note );
      ( "overload.budget_exhaustions",
        rsum (fun r -> r.Engine.budget_exhaustions),
        "count",
        traced_note );
      ("checkpoint.save_s", per_pass save_s, "s", pass_note);
      ("checkpoint.cuts", fi (List.length cuts), "count", traced_note);
      ( "checkpoint.bytes_per_cut",
        ratio (fi (List.fold_left ( + ) 0 cuts)) (fi (List.length cuts)),
        "B",
        traced_note );
      ( "checkpoint.bytes_last",
        ratio
          (tsum (fun r -> match r.cut_bytes with b :: _ -> fi b | [] -> 0.))
          (fi k),
        "B",
        "mean over streams of the final cut" );
      ("checkpoint.load_s", fst m.load, "s", "one load of the last cut");
      ( "gc.minor_words_per_served",
        ratio (per_pass (fun r -> r.minor_words)) served,
        "words",
        pass_note );
      ( "gc.major_collections",
        per_pass (fun r -> fi r.major_collections),
        "count",
        pass_note );
      ("gc.top_heap_mb", m.top_heap_mb, "MB", "after the timed runs");
      ( "telemetry.overhead_pct",
        (Probe.median m.overhead -. 1.) *. 100.,
        "%",
        Printf.sprintf
          "median over %d streams of traced / untraced Engine.run, run back \
           to back; range %+.1f%% to %+.1f%%"
          k
          ((Array.fold_left min infinity m.overhead -. 1.) *. 100.)
          ((Array.fold_left max neg_infinity m.overhead -. 1.) *. 100.) );
    ]
  in
  (* Layer shares of Engine.run, for checking that a held-out seed
     keeps each workload's character. *)
  Printf.printf "share: route %.4f checkpoint %.4f engine_self %.4f\n"
    (ratio (per_pass route_s) pass_run_s)
    (ratio (per_pass save_s) pass_run_s)
    (ratio (per_pass engine_self) pass_run_s);
  Option.iter
    (fun s ->
      let cpa r =
        ratio (fi (Array.length r.routes)) (fi r.report.Engine.arrived)
      in
      Printf.printf "share: stream 0 calls_per_arrival serial %.4f pool %.4f\n"
        (cpa s) (cpa m.traced.(0)))
    m.serial;
  print_result ~correct ~attempted:(int_of_float attempted)
    ~failed:(int_of_float failed)
    (if trace then per_layer else end_to_end)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --workdir DIR";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k =
    match Hashtbl.find_opt tbl k with Some v -> v | None -> usage ()
  in
  let int k =
    match int_of_string_opt (get k) with Some v -> v | None -> usage ()
  in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if (trace <> 0 && trace <> 1) || seconds <= 0 then usage ();
  (w, seed, fi seconds, trace = 1, get "workdir")

let () =
  let w, seed, seconds, trace, workdir = parse_args () in
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  let pool =
    if w.jobs > 1 then Some (Qnet_util.Pool.create ~jobs:w.jobs) else None
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Qnet_util.Pool.shutdown pool)
      (fun () ->
        try Ok (measure w seed seconds workdir pool)
        with e -> Error (Printexc.to_string e))
  in
  (try Sys.remove (ckpt_path workdir) with Sys_error _ -> ());
  match result with
  | Error msg ->
      (* A run that raises fails every operation it attempted. *)
      Printf.printf "check: run raised %s\n" msg;
      let n = w.samples * w.sample_requests in
      print_result ~correct:false ~attempted:n ~failed:n []
  | Ok m ->
      let trace_file =
        Filename.concat workdir
          (Printf.sprintf "trace-%s-seed%d.jsonl" w.name seed)
      in
      Probe.Spans.write trace_file;
      Printf.printf "spans: %s\n" trace_file;
      report m w seed trace
