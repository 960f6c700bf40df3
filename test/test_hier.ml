(* Tests for the hierarchical routing subsystem (Qnet_hier) and the
   continent-of-Waxmans scale generator: partition correctness, the
   feasibility-equivalence and rate properties of the channel oracle,
   Verify-clean tree construction without oversubscription, exclusion-
   driven cache invalidation, and engine determinism across --jobs. *)

module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Prng = Qnet_util.Prng
module Pool = Qnet_util.Pool
module Spec = Qnet_topology.Spec
module Waxman = Qnet_topology.Waxman
module Continent = Qnet_topology.Continent
module Partition = Qnet_hier.Partition
module Skeleton = Qnet_hier.Skeleton
module Oracle = Qnet_hier.Oracle
module Serve = Qnet_hier.Serve
module Workload = Qnet_online.Workload
module Engine = Qnet_online.Engine
module Policy = Qnet_online.Policy
module Fsched = Qnet_faults.Schedule
module Fhealth = Qnet_faults.Health
module Tm = Qnet_telemetry.Metrics
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let continent ?(regions = 4) ?(users = 12) ?(switches = 60) ?(qubits = 4) seed
    =
  let rng = Prng.create seed in
  let spec =
    Spec.create ~n_users:users ~n_switches:switches ~qubits_per_switch:qubits
      ()
  in
  Continent.generate_labeled
    ~params:{ Continent.default_params with regions }
    rng spec

let waxman ?(users = 8) ?(switches = 24) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Spec.create ~n_users:users ~n_switches:switches ~qubits_per_switch:qubits
      ()
  in
  Waxman.generate rng spec

(* ------------------------------------------------------------------ *)
(* Continent generator                                                 *)

let test_continent_shape () =
  let g, labels = continent ~regions:6 ~users:18 ~switches:90 3 in
  check_int "vertices" 108 (Graph.vertex_count g);
  check_int "users" 18 (Graph.user_count g);
  check_int "switches" 90 (Graph.switch_count g);
  check_int "labels arity" 108 (Array.length labels);
  Array.iter
    (fun r -> check_bool "label in range" true (r >= 0 && r < 6))
    labels;
  (* Every region is populated and holds at least one switch. *)
  let switches_per = Array.make 6 0 in
  Array.iteri
    (fun v r -> if Graph.is_switch g v then switches_per.(r) <- switches_per.(r) + 1)
    labels;
  Array.iter (fun c -> check_bool "switch per region" true (c >= 1)) switches_per;
  check_bool "connected" true (Paths.is_connected g);
  (* Cross-region fibers exist and land on switches. *)
  let cross = ref 0 in
  Graph.iter_edges g (fun e ->
      if labels.(e.Graph.a) <> labels.(e.Graph.b) then begin
        incr cross;
        check_bool "cross fiber joins switches" true
          (Graph.is_switch g e.Graph.a && Graph.is_switch g e.Graph.b)
      end);
  check_bool "has cross fibers" true (!cross >= 5)

let test_continent_deterministic () =
  let g1, l1 = continent ~regions:5 ~users:10 ~switches:50 11 in
  let g2, l2 = continent ~regions:5 ~users:10 ~switches:50 11 in
  check_bool "same labels" true (l1 = l2);
  check_int "same edges" (Graph.edge_count g1) (Graph.edge_count g2);
  let edges g =
    List.init (Graph.edge_count g) (fun i ->
        let e = Graph.edge g i in
        (e.Graph.a, e.Graph.b, e.Graph.length))
  in
  check_bool "same edge list" true (edges g1 = edges g2)

let test_continent_via_generate () =
  match Qnet_topology.Generate.of_name "continent" with
  | None -> Alcotest.fail "continent not registered"
  | Some kind ->
      let rng = Prng.create 5 in
      let spec = Spec.create ~n_users:8 ~n_switches:40 () in
      let g = Qnet_topology.Generate.run kind rng spec in
      check_int "vertices" 48 (Graph.vertex_count g);
      check_bool "connected" true (Paths.is_connected g)

let test_continent_rejects () =
  let rng = Prng.create 1 in
  let spec = Spec.create ~n_users:4 ~n_switches:3 () in
  Alcotest.check_raises "fewer switches than regions"
    (Invalid_argument "Continent.generate: need at least one switch per region")
    (fun () ->
      ignore
        (Continent.generate
           ~params:{ Continent.default_params with regions = 8 }
           rng spec))

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)

let test_partition_of_assignment () =
  let g, labels = continent ~regions:4 7 in
  let part = Partition.of_assignment g labels in
  check_int "regions" 4 part.Partition.count;
  check_bool "labels preserved" true (part.Partition.region_of = labels);
  (* Gateways are exactly the switches with a cross-region edge. *)
  Array.iteri
    (fun v flagged ->
      let crosses = ref false in
      Graph.iter_adjacent g v (fun w _ ->
          if labels.(w) <> labels.(v) then crosses := true);
      let expect = Graph.is_switch g v && !crosses in
      check_bool "gateway iff border switch" expect flagged)
    part.Partition.is_gateway;
  let member_total =
    Array.fold_left (fun acc m -> acc + Array.length m) 0 part.Partition.members
  in
  check_int "members partition the graph" (Graph.vertex_count g) member_total

let test_partition_kmeans () =
  let g = waxman ~users:10 ~switches:50 9 in
  let p1 = Partition.kmeans ~regions:5 ~seed:3 g in
  let p2 = Partition.kmeans ~regions:5 ~seed:3 g in
  check_bool "deterministic" true
    (p1.Partition.region_of = p2.Partition.region_of);
  check_int "regions" 5 p1.Partition.count;
  Array.iter
    (fun members ->
      check_bool "no empty region" true (Array.length members > 0))
    p1.Partition.members;
  let p3 = Partition.kmeans ~regions:5 ~seed:4 g in
  check_bool "seed matters (labels may differ)" true
    (Array.length p3.Partition.region_of = Graph.vertex_count g)

let test_partition_rejects () =
  let g = waxman 2 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Partition.of_assignment: label arity mismatch")
    (fun () -> ignore (Partition.of_assignment g [| 0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Partition.of_assignment: negative label") (fun () ->
      ignore
        (Partition.of_assignment g
           (Array.make (Graph.vertex_count g) (-1))))

(* ------------------------------------------------------------------ *)
(* Oracle vs flat routing                                              *)

let neg_log (c : Channel.t) = Qnet_util.Logprob.to_neg_log c.rate

(* The qcheck property at the heart of the subsystem: on any network
   small enough to solve flat, the oracle is feasibility-equivalent to
   Routing.best_channel, never better than the flat optimum, and exactly
   optimal whenever the flat winner stays inside one region.  The worst
   observed rate ratio is logged for the "within a logged ratio"
   half of the property. *)
let worst_ratio = ref 0. (* as neg-log delta: hier − flat *)

let prop_oracle_matches_flat =
  QCheck.Test.make ~name:"oracle feasibility-equivalent to flat" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, regions) ->
      let g, labels =
        continent ~regions ~users:8 ~switches:(12 * regions) ~qubits:4 seed
      in
      let part = Partition.of_assignment g labels in
      let oracle = Oracle.create g params part in
      let users = Graph.users g in
      let ok = ref true in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src < dst then begin
                let cap_flat = Capacity.of_graph g in
                let cap_hier = Capacity.of_graph g in
                let flat =
                  Routing.best_channel g params ~capacity:cap_flat ~src ~dst
                in
                let hier =
                  Oracle.best_channel oracle ~capacity:cap_hier ~src ~dst
                in
                match (flat, hier) with
                | None, None -> ()
                | Some _, None | None, Some _ -> ok := false
                | Some f, Some h ->
                    let df = neg_log f and dh = neg_log h in
                    (* Flat is optimal: hier can never beat it. *)
                    if dh < df -. 1e-9 then ok := false;
                    (* When the flat optimum stays within one region the
                       corridor search must reproduce its rate. *)
                    let rf = labels.(List.hd f.Channel.path) in
                    if
                      List.for_all (fun v -> labels.(v) = rf) f.Channel.path
                      && Float.abs (dh -. df) > 1e-9
                    then ok := false;
                    if dh -. df > !worst_ratio then worst_ratio := dh -. df
              end)
            users)
        users;
      !ok)

let prop_oracle_kmeans_on_waxman =
  (* Same equivalence under a derived (k-means) partition of a flat
     Waxman network — the arbitrary-graph path. *)
  QCheck.Test.make ~name:"oracle with kmeans partition" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = waxman ~users:6 ~switches:30 seed in
      let part = Partition.kmeans ~regions:3 ~seed g in
      let oracle = Oracle.create g params part in
      let users = Graph.users g in
      let ok = ref true in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src < dst then begin
                let flat =
                  Routing.best_channel g params
                    ~capacity:(Capacity.of_graph g) ~src ~dst
                in
                let hier =
                  Oracle.best_channel oracle
                    ~capacity:(Capacity.of_graph g) ~src ~dst
                in
                match (flat, hier) with
                | None, None -> ()
                | Some _, None | None, Some _ -> ok := false
                | Some f, Some h ->
                    if neg_log h < neg_log f -. 1e-9 then ok := false
              end)
            users)
        users;
      !ok)

let prop_trees_verify_without_oversubscription =
  (* Route several disjoint groups hierarchically under one shared
     capacity: every produced tree passes Verify.check_exn and the
     shared capacity is never overcommitted. *)
  QCheck.Test.make ~name:"hier trees verify, no oversubscription" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let g, labels =
        continent ~regions:3 ~users:12 ~switches:36 ~qubits:6 seed
      in
      let part = Partition.of_assignment g labels in
      let oracle = Oracle.create g params part in
      let users = Array.of_list (Graph.users g) in
      let groups =
        [
          [ users.(0); users.(1); users.(2); users.(3) ];
          [ users.(4); users.(5); users.(6) ];
          [ users.(7); users.(8) ];
        ]
      in
      let capacity = Capacity.of_graph g in
      List.iter
        (fun group ->
          match Oracle.route_users oracle ~capacity ~users:group with
          | None -> ()
          | Some tree -> Verify.check_exn g params ~users:group tree)
        groups;
      Capacity.overcommitted capacity = [])

let test_oracle_rejects () =
  let g, labels = continent 1 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let sw = List.hd (Graph.switches g) in
  let u = List.hd (Graph.users g) in
  Alcotest.check_raises "non-user endpoint"
    (Invalid_argument "Oracle.best_channel: endpoint is not a quantum user")
    (fun () ->
      ignore
        (Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src:u
           ~dst:sw));
  Alcotest.check_raises "src = dst"
    (Invalid_argument "Oracle.best_channel: src = dst") (fun () ->
      ignore
        (Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src:u
           ~dst:u))

let test_oracle_respects_exclusion () =
  let g, labels = continent ~regions:4 ~users:10 ~switches:48 21 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let users = Array.of_list (Graph.users g) in
  let src = users.(0) and dst = users.(Array.length users - 1) in
  match Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src ~dst with
  | None -> () (* nothing to exclude against on this seed *)
  | Some c ->
      (* Kill one interior switch of the found channel: the next answer
         must avoid it (or honestly fail). *)
      let interior =
        List.filter (fun v -> Graph.is_switch g v) c.Channel.path
      in
      let dead = List.hd interior in
      let exclude =
        {
          Routing.vertex_ok = (fun v -> v <> dead);
          edge_ok = (fun _ -> true);
        }
      in
      (match
         Oracle.best_channel ~exclude oracle ~capacity:(Capacity.of_graph g)
           ~src ~dst
       with
      | None -> ()
      | Some c' ->
          check_bool "avoids the dead switch" false
            (List.mem dead c'.Channel.path))

let test_skeleton_stats () =
  let g, labels = continent ~regions:4 ~users:10 ~switches:48 33 in
  let part = Partition.of_assignment g labels in
  let sk = Skeleton.create g params part in
  check_int "skeleton nodes = gateways" (Partition.gateway_count part)
    (Skeleton.node_count sk);
  check_bool "has inter edges" true (Skeleton.inter_edge_count sk > 0)

let test_eager_invalidation () =
  (* Health transitions wired through Serve.attach_health must drop the
     touched region's cached segments (observable via cache behaviour:
     a query after invalidation recomputes and still answers). *)
  let g, labels = continent ~regions:3 ~users:8 ~switches:36 5 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let health = Fhealth.create g in
  Serve.attach_health oracle health;
  let users = Array.of_list (Graph.users g) in
  let src = users.(0) and dst = users.(Array.length users - 1) in
  let q () =
    Oracle.best_channel oracle ~exclude:(Fhealth.exclusion health)
      ~capacity:(Capacity.of_graph g) ~src ~dst
  in
  let before = q () in
  (* Fail a switch, query again (exclusion-aware), repair, re-query. *)
  let sw = List.hd (Graph.switches g) in
  ignore
    (Fhealth.apply health
       { Fsched.time = 1.; element = Fsched.Switch sw; up = false });
  let during = q () in
  (match during with
  | None -> ()
  | Some c -> check_bool "down switch avoided" false (List.mem sw c.Channel.path));
  ignore
    (Fhealth.apply health
       { Fsched.time = 2.; element = Fsched.Switch sw; up = true });
  let after = q () in
  match (before, after) with
  | Some b, Some a ->
      check_bool "same rate after repair" true
        (Float.abs (neg_log b -. neg_log a) < 1e-9)
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility changed across a repaired fault"

(* ------------------------------------------------------------------ *)
(* Reference skeleton                                                  *)

(* The two-endpoint skeleton search as it stood before the set-to-set
   search replaced it, on its own private SSSP workspace and segment
   cache.  [Skeleton.route_sets] with one user on each side must push
   the same heap entries in the same order, so it must pick the same
   corridors and leave the same cache, query after query. *)
module Ref_skeleton = struct
  module Binary_heap = Qnet_graph.Binary_heap
  module Sx = Qnet_util.Sexp

  type seg = { cost : float; path : int list; edges : int list }

  type entry = { segs : seg array; mutable stamp : int }

  type scratch = {
    sc_dist : float array;
    sc_prev : int array;
    sc_prev_edge : int array;
    sc_mark : int array;
    sc_done : int array;
    sc_heap : int Binary_heap.t;
    mutable sc_gen : int;
  }

  let scratch_make n =
    {
      sc_dist = Array.make n infinity;
      sc_prev = Array.make n (-1);
      sc_prev_edge = Array.make n (-1);
      sc_mark = Array.make n (-1);
      sc_done = Array.make n (-1);
      sc_heap = Binary_heap.create ~capacity:1024 ();
      sc_gen = 0;
    }

  let sc_dist sc v =
    if sc.sc_mark.(v) = sc.sc_gen then sc.sc_dist.(v) else infinity

  type t = {
    g : Graph.t;
    params : Qnet_core.Params.t;
    part : Partition.t;
    node_of : int array;
    vertex_of : int array;
    region_nodes : int array array;
    inter : (int * float * int) array array;
    cache : (int, entry) Hashtbl.t;
    scratch : scratch;
    h_rate : float;
    mutable query : int;
  }

  let sssp t ~source ~admit ~expand ~edge_ok ~budget =
    let sc = t.scratch in
    sc.sc_gen <- sc.sc_gen + 1;
    Binary_heap.reset sc.sc_heap;
    let charge =
      match budget with
      | None -> Fun.id
      | Some b -> fun () -> Qnet_overload.Budget.tick b
    in
    let off = Graph.csr_offsets t.g and pairs = Graph.csr_pairs t.g in
    sc.sc_dist.(source) <- 0.;
    sc.sc_prev.(source) <- -1;
    sc.sc_mark.(source) <- sc.sc_gen;
    Binary_heap.push sc.sc_heap 0. source;
    let running = ref true in
    while !running do
      match Binary_heap.pop_min sc.sc_heap with
      | None -> running := false
      | Some (d, u) ->
          charge ();
          if sc.sc_done.(u) <> sc.sc_gen && d <= sc_dist sc u then begin
            sc.sc_done.(u) <- sc.sc_gen;
            if u = source || expand u then
              for k = off.(u) to off.(u + 1) - 1 do
                let v = pairs.(2 * k) in
                if
                  sc.sc_done.(v) <> sc.sc_gen
                  && (v = source || admit v)
                  && edge_ok pairs.((2 * k) + 1)
                then begin
                  let eid = pairs.((2 * k) + 1) in
                  let e = Graph.edge t.g eid in
                  let cand = d +. Routing.edge_weight t.params e in
                  if cand < sc_dist sc v then begin
                    sc.sc_dist.(v) <- cand;
                    sc.sc_prev.(v) <- u;
                    sc.sc_prev_edge.(v) <- eid;
                    sc.sc_mark.(v) <- sc.sc_gen;
                    Binary_heap.push sc.sc_heap cand v
                  end
                end
              done
          end
    done

  let sc_path t ~source ~target =
    let sc = t.scratch in
    if sc_dist sc target = infinity then None
    else begin
      let rec walk v vs es =
        if v = source then (v :: vs, es)
        else walk sc.sc_prev.(v) (v :: vs) (sc.sc_prev_edge.(v) :: es)
      in
      Some (walk target [] [])
    end

  let create g params (part : Partition.t) =
    let n = Graph.vertex_count g in
    let node_of = Array.make n (-1) in
    let m = Partition.gateway_count part in
    let vertex_of = Array.make m 0 in
    let region_nodes = Array.make part.Partition.count [||] in
    let next = ref 0 in
    Array.iteri
      (fun r gws ->
        region_nodes.(r) <-
          Array.map
            (fun v ->
              let node = !next in
              incr next;
              node_of.(v) <- node;
              vertex_of.(node) <- v;
              node)
            gws)
      part.Partition.gateways;
    let inter_lists = Array.make m [] in
    Graph.iter_edges g (fun e ->
        let ra = part.Partition.region_of.(e.Graph.a)
        and rb = part.Partition.region_of.(e.Graph.b) in
        if ra <> rb then begin
          let na = node_of.(e.Graph.a) and nb = node_of.(e.Graph.b) in

          if na >= 0 && nb >= 0 then begin
            let w = Routing.edge_weight params e in
            inter_lists.(na) <- (nb, w, e.Graph.eid) :: inter_lists.(na);
            inter_lists.(nb) <- (na, w, e.Graph.eid) :: inter_lists.(nb)
          end
        end);
    let l_max =
      Graph.fold_edges g ~init:0. ~f:(fun acc e -> Float.max acc e.Graph.length)
    in
    let h_rate =
      params.Qnet_core.Params.alpha
      +. (if l_max > 0. then Qnet_core.Params.swap_neg_log params /. l_max
          else 0.)
    in
    {
      g;
      params;
      part;
      node_of;
      vertex_of;
      region_nodes;
      inter = Array.map (fun l -> Array.of_list (List.rev l)) inter_lists;
      cache = Hashtbl.create 256;
      scratch = scratch_make n;
      h_rate;
      query = 0;
    }

  let seg_ok ~exclude ~capacity (s : seg) =
    s.cost < infinity
    && List.for_all exclude.Routing.vertex_ok s.path
    && List.for_all exclude.Routing.edge_ok s.edges
    && List.for_all (fun v -> Capacity.can_relay capacity v) s.path

  let compute_entry t ~exclude ~budget ~capacity a =
    let va = t.vertex_of.(a) in
    let r = t.part.Partition.region_of.(va) in
    let admit v =
      t.part.Partition.region_of.(v) = r
      && exclude.Routing.vertex_ok v
      && Graph.is_switch t.g v
      && Capacity.can_relay capacity v
    in
    sssp t ~source:va ~admit
      ~expand:(fun v -> Graph.is_switch t.g v)
      ~edge_ok:exclude.Routing.edge_ok ~budget;
    let segs =
      Array.map
        (fun b ->
          if b = a then { cost = 0.; path = []; edges = [] }
          else
            let vb = t.vertex_of.(b) in
            match sc_path t ~source:va ~target:vb with
            | None -> { cost = infinity; path = []; edges = [] }
            | Some (p, es) ->
                { cost = sc_dist t.scratch vb; path = p; edges = es })
        t.region_nodes.(r)
    in
    let e = { segs; stamp = t.query } in
    Hashtbl.replace t.cache a e;
    e

  let entry t ~exclude ~budget ~capacity a =
    match Hashtbl.find_opt t.cache a with
    | Some e ->
        e
    | None -> compute_entry t ~exclude ~budget ~capacity a

  let route t ~exclude ~budget ~capacity ~src ~dst =
    t.query <- t.query + 1;
    let m = Array.length t.vertex_of in
    let region_of = t.part.Partition.region_of in
    let r_src = region_of.(src) and r_dst = region_of.(dst) in

    let attach u r =
      let admit v =
        region_of.(v) = r
        && exclude.Routing.vertex_ok v
        &&
        if Graph.is_user t.g v then v <> u
        else Capacity.can_relay capacity v
      in
      sssp t ~source:u ~admit
        ~expand:(fun v -> Graph.is_switch t.g v)
        ~edge_ok:exclude.Routing.edge_ok ~budget;
      Array.map
        (fun node -> sc_dist t.scratch t.vertex_of.(node))
        t.region_nodes.(r)
    in
    let src_d = attach src r_src in
    let dst_d = attach dst r_dst in

    let dst_base =
      if Array.length t.region_nodes.(r_dst) > 0 then
        t.region_nodes.(r_dst).(0)
      else 0
    in
    let s_node = m and d_node = m + 1 in
    let admit_node b =
      let vb = t.vertex_of.(b) in
      exclude.Routing.vertex_ok vb && Capacity.can_relay capacity vb
    in

    let search () =
      let dist = Array.make (m + 2) infinity in
      let prev = Array.make (m + 2) (-1) in
      let done_ = Array.make (m + 2) false in
      let heap = Binary_heap.create ~capacity:(m + 2) () in
      let dv = Graph.vertex t.g dst in
      let h v =
        if v >= m then 0.
        else begin
          let p = Graph.vertex t.g t.vertex_of.(v) in
          let dx = p.Graph.x -. dv.Graph.x and dy = p.Graph.y -. dv.Graph.y in
          t.h_rate *. sqrt ((dx *. dx) +. (dy *. dy))
        end
      in
      let relax u d v w =
        if w < infinity then begin
          let cand = d +. w in
          if cand < dist.(v) then begin
            dist.(v) <- cand;
            prev.(v) <- u;
            Binary_heap.push heap (cand +. h v) v
          end
        end
      in
      dist.(s_node) <- 0.;
      Binary_heap.push heap 0. s_node;
      let running = ref true in
      while !running do
        match Binary_heap.pop_min heap with
        | None -> running := false
        | Some (_, u) ->
            if not done_.(u) then begin
              let d = dist.(u) in
              done_.(u) <- true;
              if u = d_node then running := false
              else if u = s_node then
                Array.iteri
                  (fun i b -> if admit_node b then relax u d b src_d.(i))
                  t.region_nodes.(r_src)
              else begin
                let vu = t.vertex_of.(u) in
                let ru = region_of.(vu) in
                let e = entry t ~exclude ~budget ~capacity u in
                Array.iteri
                  (fun i b ->
                    if b <> u && (not done_.(b)) && admit_node b then
                      relax u d b e.segs.(i).cost)
                  t.region_nodes.(ru);
                Array.iter
                  (fun (b, w, eid) ->
                    if
                      (not done_.(b))
                      && exclude.Routing.edge_ok eid
                      && admit_node b
                    then relax u d b w)
                  t.inter.(u);
                if ru = r_dst then relax u d d_node dst_d.(u - dst_base)
              end
            end
      done;
      (dist, prev)
    in

    let corridor_of prev =
      let seen = Array.make t.part.Partition.count false in
      let rec walk v acc =
        if v = s_node || v < 0 then acc
        else
          let acc =
            if v < m then begin
              let r = region_of.(t.vertex_of.(v)) in
              if seen.(r) then acc
              else begin
                seen.(r) <- true;
                r :: acc
              end
            end
            else acc
          in
          walk prev.(v) acc
      in
      let mids = walk prev.(d_node) [] in
      let tail = if seen.(r_dst) then mids else mids @ [ r_dst ] in
      if seen.(r_src) then tail else r_src :: tail
    in

    let stale_sources prev =
      let rec walk v acc =
        if v = s_node || v < 0 then acc
        else begin
          let u = prev.(v) in
          let acc =
            if
              u >= 0 && u < m && v < m
              && region_of.(t.vertex_of.(u)) = region_of.(t.vertex_of.(v))
            then
              match Hashtbl.find_opt t.cache u with
              | Some e when e.stamp <> t.query ->
                  let base =
                    t.region_nodes.(region_of.(t.vertex_of.(v))).(0)
                  in
                  if seg_ok ~exclude ~capacity e.segs.(v - base) then acc
                  else u :: acc
              | _ -> acc
            else acc
          in
          walk u acc
        end
      in
      walk d_node []
    in

    let drop_old () =
      let old =
        Hashtbl.fold
          (fun a e acc -> if e.stamp <> t.query then a :: acc else acc)
          t.cache []
      in
      List.iter (Hashtbl.remove t.cache) old;
      old <> []
    in
    let rec attempt ~refreshed retries =
      let dist, prev = search () in
      if dist.(d_node) = infinity then
        if (not refreshed) && drop_old () then attempt ~refreshed:true retries
        else None
      else
        match stale_sources prev with
        | [] -> Some (corridor_of prev)
        | dead ->
            if retries = 0 then None
            else begin
              List.iter
                (fun a ->
                  ignore (compute_entry t ~exclude ~budget ~capacity a))
                dead;
              attempt ~refreshed (retries - 1)
            end
    in
    attempt ~refreshed:false 3

  let export t =
    let entries =
      Hashtbl.fold (fun node e acc -> (node, e) :: acc) t.cache []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (node, e) ->
             let seg_sx s =
               Sx.list
                 [
                   Sx.float s.cost;
                   Sx.list (List.map Sx.int s.path);
                   Sx.list (List.map Sx.int s.edges);
                 ]
             in
             Sx.list
               [
                 Sx.int node;
                 Sx.int e.stamp;
                 Sx.list (Array.to_list (Array.map seg_sx e.segs));
               ])
    in
    Sx.list
      [
        Sx.atom "skeleton";
        Sx.list [ Sx.atom "query"; Sx.int t.query ];
        Sx.list (Sx.atom "entries" :: entries);
      ]

  let invalidate_region t r =
    if r >= 0 && r < Array.length t.region_nodes then
      Array.iter (fun node -> Hashtbl.remove t.cache node) t.region_nodes.(r)
end


module Sx = Qnet_util.Sexp

let users_in_other_regions part users =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if Partition.region part a <> Partition.region part b then
            Some (a, b)
          else None)
        users)
    users

(* The two-endpoint case of [route_sets] against the reference, over a
   sequence of point queries with residual qubits re-provisioned,
   switches and fibers failed, and regions invalidated in between:
   equal corridors and an equal exported cache after every step. *)
let prop_route_sets_matches_reference =
  QCheck.Test.make ~name:"two-endpoint route_sets = reference route"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 2 4))
    (fun (seed, regions) ->
      let g, labels =
        continent ~regions ~users:8 ~switches:(12 * regions) ~qubits:4 seed
      in
      let part = Partition.of_assignment g labels in
      let sk = Skeleton.create g params part in
      let rf = Ref_skeleton.create g params part in
      let rng = Prng.create seed in
      let capacity = Capacity.of_graph g in
      let switches = Array.of_list (Graph.switches g) in
      let pairs = Array.of_list (users_in_other_regions part (Graph.users g)) in
      let same () =
        Sx.to_string (Skeleton.export sk)
        = Sx.to_string (Ref_skeleton.export rf)
      in
      let step () =
        match Prng.int rng 6 with
        | 0 ->
            let r = Prng.int rng regions in
            Skeleton.invalidate_region sk r;
            Ref_skeleton.invalidate_region rf r;
            same ()
        | 1 ->
            Capacity.provision capacity (Prng.pick rng switches)
              (Prng.int rng 5);
            true
        | _ when Array.length pairs = 0 -> true
        | _ ->
            let src, dst = Prng.pick rng pairs in
            let down_v = Prng.pick rng switches in
            let down_e = Prng.int rng (Graph.edge_count g) in
            let exclude =
              if Prng.bool rng then Routing.no_exclusion
              else
                {
                  Routing.vertex_ok = (fun v -> v <> down_v);
                  edge_ok = (fun e -> e <> down_e);
                }
            in
            let got =
              Skeleton.route_sets sk ~exclude ~budget:None ~capacity
                ~inside:[ src ] ~outside:[ dst ]
            in
            let want =
              Ref_skeleton.route rf ~exclude ~budget:None ~capacity ~src ~dst
            in
            got = want && same ()
      in
      let rec steps n = n = 0 || (step () && steps (n - 1)) in
      steps 30)

(* A random hier instance: continent or k-means partition (the latter
   puts users on region borders, so the skeleton can miss a route and
   the fallback must answer), residual qubits re-provisioned at random,
   a few switches and fibers failed, and a group of 3–6 users. *)
let set_case seed =
  let rng = Prng.create seed in
  let regions = 2 + Prng.int rng 3 in
  let g, labels =
    continent ~regions ~users:10 ~switches:(12 * regions) ~qubits:4 seed
  in
  let part =
    if Prng.bool rng then Partition.of_assignment g labels
    else Partition.kmeans ~regions ~seed g
  in
  let capacity = Capacity.of_graph g in
  List.iter
    (fun sw ->
      if Prng.int rng 4 = 0 then
        Capacity.provision capacity sw (Prng.int rng 4))
    (Graph.switches g);
  let down_v = Hashtbl.create 8 and down_e = Hashtbl.create 8 in
  List.iter
    (fun sw -> if Prng.int rng 12 = 0 then Hashtbl.replace down_v sw ())
    (Graph.switches g);
  for e = 0 to Graph.edge_count g - 1 do
    if Prng.int rng 20 = 0 then Hashtbl.replace down_e e ()
  done;
  let exclude =
    {
      Routing.vertex_ok = (fun v -> not (Hashtbl.mem down_v v));
      edge_ok = (fun e -> not (Hashtbl.mem down_e e));
    }
  in
  let users = Array.of_list (Graph.users g) in
  Prng.shuffle_in_place rng users;
  let k = 3 + Prng.int rng 4 in
  (g, part, capacity, exclude, Array.to_list (Array.sub users 0 k))

(* Every prefix split of the group into inside / outside users, with
   the outside users in ascending order (as the step enumerates them). *)
let set_splits group =
  List.init
    (List.length group - 1)
    (fun i ->
      let inside = List.filteri (fun j _ -> j <= i) group in
      let outside = List.filteri (fun j _ -> j > i) group in
      (inside, List.sort compare outside))

let paths = Option.map (fun (c : Channel.t) -> c.path)

let prop_step_is_corridor_search =
  QCheck.Test.make ~name:"set step = best_attachment in its corridor"
    ~count:60 QCheck.(int_bound 10_000) (fun seed ->
      let g, part, capacity, exclude, group = set_case seed in
      let step_oracle = Oracle.create g params part in
      let ref_oracle = Oracle.create g params part in
      List.for_all
        (fun (inside, outside) ->
          let member v = List.mem v outside in
          let got =
            Oracle.best_attachment ~exclude step_oracle ~capacity ~inside
              ~outside:member
          in
          let flat exclude =
            Routing.best_attachment ~exclude g params ~capacity ~inside
              ~outside:member
          in
          let want =
            match
              Skeleton.route_sets (Oracle.skeleton ref_oracle) ~exclude
                ~budget:None ~capacity ~inside ~outside
            with
            | None -> flat exclude
            | Some regions -> (
                let in_corridor v =
                  List.mem (Partition.region part v) regions
                in
                match
                  flat
                    {
                      exclude with
                      Routing.vertex_ok =
                        (fun v -> in_corridor v && exclude.Routing.vertex_ok v);
                    }
                with
                | Some c -> Some c
                | None -> flat exclude)
          in
          paths got = paths want)
        (set_splits group))

let prop_step_feasibility_equivalent =
  QCheck.Test.make ~name:"set step feasibility-equivalent to flat" ~count:80
    QCheck.(int_bound 10_000) (fun seed ->
      let g, part, capacity, exclude, group = set_case seed in
      let oracle = Oracle.create g params part in
      List.for_all
        (fun (inside, outside) ->
          let member v = List.mem v outside in
          let hier =
            Oracle.best_attachment ~exclude oracle ~capacity ~inside
              ~outside:member
          in
          let flat =
            Routing.best_attachment ~exclude g params ~capacity ~inside
              ~outside:member
          in
          match (flat, hier) with
          | None, None -> true
          | Some _, None | None, Some _ -> false
          | Some f, Some h ->
              let df = neg_log f and dh = neg_log h in
              let one_region =
                let r = Partition.region part (List.hd f.Channel.path) in
                List.for_all
                  (fun v -> Partition.region part v = r)
                  f.Channel.path
              in
              (* Never better than the flat optimum, and equal to it
                 when that stays within one region (the local edge). *)
              dh >= df -. 1e-9 && ((not one_region) || dh -. df <= 1e-9))
        (set_splits group))

let prop_step_queries =
  QCheck.Test.make ~name:"k users cost k - 1 hier queries" ~count:30
    QCheck.(int_bound 10_000) (fun seed ->
      let g, labels =
        continent ~regions:3 ~users:10 ~switches:36 ~qubits:20 seed
      in
      let oracle = Oracle.create g params (Partition.of_assignment g labels) in
      let rng = Prng.create seed in
      let users = Array.of_list (Graph.users g) in
      Prng.shuffle_in_place rng users;
      let k = 2 + Prng.int rng 5 in
      let group = Array.to_list (Array.sub users 0 k) in
      Tm.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Tm.set_enabled false;
          Tm.reset ())
        (fun () ->
          Tm.reset ();
          match
            Oracle.route_users oracle ~capacity:(Capacity.of_graph g)
              ~users:group
          with
          | None -> false
          | Some _ -> Tm.Counter.value (Tm.counter "hier.queries") = k - 1))

(* Three regions: the best inside-to-outside pair (u2, v) shares region
   B, deep inside it, while the cheapest gateway route joins the other
   inside user u1 (region A) to the other outside user w (region C).
   Only the local edge lets the step find the in-region channel. *)
let test_local_edge_wins () =
  let b = Graph.Builder.create () in
  let coords = Hashtbl.create 8 in
  (* Coordinates in km; every fiber is as long as the straight line. *)
  let at kind x y =
    let x = 1000. *. x and y = 1000. *. y in
    let id =
      Graph.Builder.add_vertex b ~kind
        ~qubits:(if kind = Graph.User then 0 else 4)
        ~x ~y
    in
    Hashtbl.replace coords id (x, y);
    id
  in
  let u2 = at Graph.User 0. 0. and s1 = at Graph.Switch 1. 0. in
  let v = at Graph.User 2. 0. and gb = at Graph.Switch 1. 30. in
  let u1 = at Graph.User (-20.) 60. and ga = at Graph.Switch (-19.) 60. in
  let w = at Graph.User 21. 60. and gc = at Graph.Switch 20. 60. in
  List.iter
    (fun (a, c) ->
      let xa, ya = Hashtbl.find coords a and xc, yc = Hashtbl.find coords c in
      ignore (Graph.Builder.add_edge b a c (Float.hypot (xa -. xc) (ya -. yc))))
    [
      (u2, s1); (s1, v); (s1, gb); (u1, ga); (w, gc); (ga, gc); (gb, ga);
      (gb, gc);
    ];
  let g = Graph.Builder.freeze b in
  let labels = Array.make (Graph.vertex_count g) 0 in
  List.iter (fun x -> labels.(x) <- 1) [ u2; s1; v; gb ];
  List.iter (fun x -> labels.(x) <- 2) [ w; gc ];
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let capacity = Capacity.of_graph g in
  let inside = [ u1; u2 ] and outside = [ v; w ] in
  check_bool "corridor is region B" true
    (Skeleton.route_sets (Oracle.skeleton (Oracle.create g params part))
       ~exclude:Routing.no_exclusion ~budget:None ~capacity ~inside ~outside
    = Some [ 1 ]);
  match
    Oracle.best_attachment oracle ~capacity ~inside
      ~outside:(fun x -> List.mem x outside)
  with
  | None -> Alcotest.fail "no channel"
  | Some c ->
      check_bool "the in-region channel" true
        (c.Channel.path = [ u2; s1; v ] || c.Channel.path = [ v; s1; u2 ])

(* ------------------------------------------------------------------ *)
(* Online integration & determinism                                    *)

let hier_policy g labels =
  let part = Partition.of_assignment g labels in
  Serve.policy (Oracle.create g params part)

let traffic_requests g seed n =
  let users = Array.of_list (Graph.users g) in
  let rng = Prng.create seed in
  List.init n (fun id ->
      let a = Prng.int rng (Array.length users) in
      let b = (a + 1 + Prng.int rng (Array.length users - 1))
              mod Array.length users in
      let arrival = float_of_int id *. 0.25 in
      {
        Workload.id;
        users = [ users.(a); users.(b) ];
        arrival;
        duration = 2.;
        deadline = arrival +. 1.5;
      })

let test_engine_serves_hierarchically () =
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 42 in
  let config = Engine.config (hier_policy g labels) in
  let report, outcomes =
    Engine.run ~config g params ~requests:(traffic_requests g 42 40)
  in
  check_bool "served some" true (report.Engine.served > 0);
  check_int "all resolved" 40 (List.length outcomes)

let test_engine_jobs_determinism () =
  (* Same seed, --jobs 1 vs --jobs 2: identical hierarchical solves.
     Fresh oracle per run so no cache state crosses runs. *)
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 17 in
  let summary (o : Engine.outcome) =
    let id = o.Engine.request.Workload.id in
    match o.Engine.resolution with
    | Engine.Served { start; finish; rate; attempts; _ } ->
        (id, "served", start, finish, rate, attempts)
    | Engine.Rejected { at; _ } -> (id, "rejected", at, 0., 0., 0)
    | Engine.Shed { at; _ } -> (id, "shed", at, 0., 0., 0)
    | Engine.Expired { at; attempts } ->
        (id, "expired", at, 0., 0., attempts)
    | Engine.Interrupted { start; at; attempts; _ } ->
        (id, "interrupted", start, at, 0., attempts)
  in
  let run pool =
    let config = Engine.config (hier_policy g labels) in
    let report, outcomes =
      Engine.run ~config ?pool g params ~requests:(traffic_requests g 17 60)
    in
    ( report.Engine.served,
      report.Engine.acceptance_ratio,
      report.Engine.mean_rate,
      List.map summary outcomes )
  in
  let r1 = run None in
  let r2 = Pool.with_pool ~jobs:2 (fun p -> run (Some p)) in
  check_bool "identical at jobs 1 vs 2" true (r1 = r2)

let test_engine_hier_under_faults () =
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 23 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let config = Engine.config (Serve.policy oracle) in
  let schedule =
    (* Deterministic down/up pulses on the first few switches. *)
    List.concat_map
      (fun (i, sw) ->
        [
          { Fsched.time = 1. +. float_of_int i; element = Fsched.Switch sw;
            up = false };
          { Fsched.time = 3. +. float_of_int i; element = Fsched.Switch sw;
            up = true };
        ])
      (List.filteri (fun i _ -> i < 3)
         (List.mapi (fun i s -> (i, s)) (Graph.switches g)))
  in
  let report, _ =
    Engine.run ~config ~fault_schedule:schedule
      ~on_health:(fun h -> Serve.attach_health oracle h)
      g params
      ~requests:(traffic_requests g 23 50)
  in
  check_bool "faults applied" true (report.Engine.faults_injected > 0);
  check_bool "still serves" true (report.Engine.served > 0)

let test_prim_attachment_plug_identity () =
  (* The identity plug: prim_for_users with Routing.best_attachment as
     its oracle must grow the very same tree, channel by channel, as
     prim_for_users without one. *)
  let g = waxman ~users:6 ~switches:30 ~qubits:8 13 in
  let users = Graph.users g in
  let grow ?oracle () =
    Option.map
      (fun t -> List.map (fun (c : Channel.t) -> c.path) t.Ent_tree.channels)
      (Multi_group.prim_for_users ?oracle g params
         ~capacity:(Capacity.of_graph g) ~users)
  in
  let plain = grow () in
  check_bool "served" true (plain <> None);
  check_bool "same channels" true
    (plain = grow ~oracle:Routing.best_attachment ())

(* The "within a logged ratio" half of the ISSUE property: report the
   worst hier/flat rate ratio the property tests observed.  Runs after
   the properties section (alcotest executes sections in order). *)
let test_log_worst_ratio () =
  Printf.printf "hier worst rate ratio vs flat: exp(-%.4f) = %.4f\n%!"
    !worst_ratio
    (exp (-. !worst_ratio));
  check_bool "ratio is a sane probability factor" true
    (!worst_ratio >= 0. && Float.is_finite !worst_ratio)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_oracle_matches_flat;
        prop_oracle_kmeans_on_waxman;
        prop_trees_verify_without_oversubscription;
        prop_route_sets_matches_reference;
        prop_step_is_corridor_search;
        prop_step_feasibility_equivalent;
        prop_step_queries;
      ]
  in
  Alcotest.run "hier"
    [
      ( "continent",
        [
          Alcotest.test_case "shape" `Quick test_continent_shape;
          Alcotest.test_case "deterministic" `Quick
            test_continent_deterministic;
          Alcotest.test_case "via generate" `Quick test_continent_via_generate;
          Alcotest.test_case "rejects" `Quick test_continent_rejects;
        ] );
      ( "partition",
        [
          Alcotest.test_case "of_assignment" `Quick
            test_partition_of_assignment;
          Alcotest.test_case "kmeans" `Quick test_partition_kmeans;
          Alcotest.test_case "rejects" `Quick test_partition_rejects;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rejects" `Quick test_oracle_rejects;
          Alcotest.test_case "exclusion" `Quick test_oracle_respects_exclusion;
          Alcotest.test_case "skeleton stats" `Quick test_skeleton_stats;
          Alcotest.test_case "eager invalidation" `Quick
            test_eager_invalidation;
          Alcotest.test_case "best_attachment plug" `Quick
            test_prim_attachment_plug_identity;
          Alcotest.test_case "local edge wins" `Quick test_local_edge_wins;
        ] );
      ("properties", props);
      ( "summary",
        [ Alcotest.test_case "worst ratio logged" `Quick test_log_worst_ratio ]
      );
      ( "online",
        [
          Alcotest.test_case "engine serves" `Quick
            test_engine_serves_hierarchically;
          Alcotest.test_case "jobs determinism" `Quick
            test_engine_jobs_determinism;
          Alcotest.test_case "faults" `Quick test_engine_hier_under_faults;
        ] );
    ]
