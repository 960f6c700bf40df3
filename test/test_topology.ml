(* Unit tests for the qnet_topology library: layout, spec, assembly and
   the four generators. *)

module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Prng = Qnet_util.Prng
open Qnet_topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Layout ---------------- *)

let test_layout_distance () =
  let a = Layout.{ x = 0.; y = 0. } and b = Layout.{ x = 3.; y = 4. } in
  Alcotest.(check (float 1e-9)) "3-4-5" 5. (Layout.distance a b)

let test_layout_random_points () =
  let rng = Prng.create 1 in
  let pts = Layout.random_points rng ~area:100. 500 in
  check_int "count" 500 (Array.length pts);
  Array.iter
    (fun (p : Layout.point) ->
      check_bool "in area" true (p.x >= 0. && p.x < 100. && p.y >= 0. && p.y < 100.))
    pts

let test_layout_ring () =
  let pts = Layout.ring_points ~area:100. 8 in
  check_int "count" 8 (Array.length pts);
  (* All at the same radius from the center. *)
  let center = Layout.{ x = 50.; y = 50. } in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-6)) "radius" 45. (Layout.distance center p))
    pts

let test_layout_max_distance () =
  Alcotest.(check (float 1e-9))
    "diagonal" (100. *. sqrt 2.)
    (Layout.max_distance ~area:100.)

(* ---------------- Spec ---------------- *)

let test_spec_default () =
  let s = Spec.default in
  check_int "users" 10 s.Spec.n_users;
  check_int "switches" 50 s.Spec.n_switches;
  check_int "vertex count" 60 (Spec.vertex_count s);
  check_int "edge budget 6*60/2" 180 (Spec.target_edges s)

let test_spec_validation () =
  Alcotest.check_raises "no users"
    (Invalid_argument "Spec: need at least one user") (fun () ->
      ignore (Spec.create ~n_users:0 ()));
  Alcotest.check_raises "bad degree"
    (Invalid_argument "Spec: avg_degree must be positive and finite")
    (fun () -> ignore (Spec.create ~avg_degree:0. ()))

let test_spec_edge_budget_clamps () =
  (* 4 vertices, degree 10: clamp to the simple-graph max of 6. *)
  let s = Spec.create ~n_users:2 ~n_switches:2 ~avg_degree:10. () in
  check_int "clamp to complete graph" 6 (Spec.target_edges s);
  (* Degree 0.1 clamps up to a spanning count. *)
  let s = Spec.create ~n_users:2 ~n_switches:2 ~avg_degree:0.1 () in
  check_int "clamp to n-1" 3 (Spec.target_edges s)

(* ---------------- Assemble ---------------- *)

let test_assign_roles () =
  let rng = Prng.create 3 in
  let spec = Spec.create ~n_users:4 ~n_switches:6 () in
  let roles = Assemble.assign_roles rng spec in
  check_int "arity" 10 (Array.length roles);
  let users =
    Array.fold_left
      (fun n k -> if k = Graph.User then n + 1 else n)
      0 roles
  in
  check_int "exactly n_users user roles" 4 users

let test_connect_components () =
  let points =
    [|
      Layout.{ x = 0.; y = 0. };
      Layout.{ x = 1.; y = 0. };
      Layout.{ x = 10.; y = 0. };
      Layout.{ x = 11.; y = 0. };
    |]
  in
  let edges = [ (0, 1); (2, 3) ] in
  let extra = Assemble.connect_components points edges in
  check_int "one extra edge" 1 (List.length extra);
  (* The geometrically shortest cross pair is 1-2. *)
  Alcotest.(check (list (pair int int))) "shortest bridge" [ (1, 2) ] extra

let test_connect_components_noop () =
  let points = [| Layout.{ x = 0.; y = 0. }; Layout.{ x = 1.; y = 0. } |] in
  Alcotest.(check (list (pair int int)))
    "already connected" []
    (Assemble.connect_components points [ (0, 1) ])

(* ---------------- Generators ---------------- *)

let generators =
  [
    ("waxman", Generate.waxman);
    ("watts-strogatz", Generate.watts_strogatz);
    ("volchenkov", Generate.volchenkov);
    ("grid", Generate.grid);
  ]

let spec = Spec.create ~n_users:8 ~n_switches:24 ~qubits_per_switch:4 ()

let test_generators_connected () =
  List.iter
    (fun (name, kind) ->
      for seed = 1 to 5 do
        let rng = Prng.create seed in
        let g = Generate.run kind rng spec in
        check_bool (name ^ " connected") true (Paths.is_connected g);
        check_int (name ^ " vertex count") 32 (Graph.vertex_count g);
        check_int (name ^ " users") 8 (Graph.user_count g)
      done)
    generators

let test_generators_deterministic () =
  List.iter
    (fun (name, kind) ->
      let g1 = Generate.run kind (Prng.create 7) spec in
      let g2 = Generate.run kind (Prng.create 7) spec in
      check_int (name ^ " same edges") (Graph.edge_count g1)
        (Graph.edge_count g2);
      Graph.iter_edges g1 (fun e ->
          let e2 = Graph.edge g2 e.Graph.eid in
          check_bool (name ^ " edge match") true
            (e.Graph.a = e2.Graph.a && e.Graph.b = e2.Graph.b)))
    generators

let test_generator_seed_variation () =
  let g1 = Generate.run Generate.waxman (Prng.create 1) spec in
  let g2 = Generate.run Generate.waxman (Prng.create 2) spec in
  let same = ref (Graph.edge_count g1 = Graph.edge_count g2) in
  if !same then
    Graph.iter_edges g1 (fun e ->
        let e2 = Graph.edge g2 e.Graph.eid in
        if e.Graph.a <> e2.Graph.a || e.Graph.b <> e2.Graph.b then same := false);
  check_bool "different seeds differ" false !same

let test_waxman_edge_budget () =
  let rng = Prng.create 5 in
  let g = Waxman.generate rng spec in
  let budget = Spec.target_edges spec in
  (* Repair may add a few; never fewer than the budget. *)
  check_bool "at least budget" true (Graph.edge_count g >= budget);
  check_bool "no silly excess" true (Graph.edge_count g <= budget + 10)

let test_waxman_prefers_short_edges () =
  (* Average chosen-edge length must be well below the average pair
     distance (the whole point of the Waxman bias). *)
  let rng = Prng.create 11 in
  let g = Waxman.generate rng Spec.default in
  let mean_len =
    Graph.fold_edges g ~init:0. ~f:(fun acc e -> acc +. e.Graph.length)
    /. float_of_int (Graph.edge_count g)
  in
  (* Mean distance between uniform points in a 10k square is ~5214. *)
  check_bool "bias toward short fibers" true (mean_len < 3500.)

(* The selection before the bounded heap, kept as the reference: box
   every keyed pair onto a list (later pairs first), stable-sort it by
   key descending and keep the first [target_edges]. *)
let waxman_reference ?(params = Waxman.default_params) rng spec =
  let n = Spec.vertex_count spec in
  let points = Layout.random_points rng ~area:spec.Spec.area n in
  let roles = Assemble.assign_roles rng spec in
  let scale =
    params.Waxman.alpha_w *. Layout.max_distance ~area:spec.Spec.area
  in
  let keyed = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Layout.distance points.(u) points.(v) in
      let w = exp (-.d /. scale) in
      let u01 = Float.max 1e-300 (Prng.float rng 1.) in
      keyed := (log u01 /. w, (u, v)) :: !keyed
    done
  done;
  let sorted = List.sort (fun (k1, _) (k2, _) -> Float.compare k2 k1) !keyed in
  let budget = Spec.target_edges spec in
  let edges = List.filteri (fun i _ -> i < budget) sorted |> List.map snd in
  Assemble.build spec ~points ~roles ~edges

let edge_list g = List.init (Graph.edge_count g) (Graph.edge g)

let test_waxman_matches_reference () =
  List.iter
    (fun (switches, seeds) ->
      List.iter
        (fun seed ->
          let spec = Spec.create ~n_users:10 ~n_switches:switches () in
          let g = Waxman.generate (Prng.create seed) spec in
          let r = waxman_reference (Prng.create seed) spec in
          check_bool
            (Printf.sprintf "%d switches, seed %d: same edges, same ids"
               switches seed)
            true
            (edge_list g = edge_list r))
        seeds)
    [ (100, [ 1; 2; 3; 4 ]); (400, [ 5; 6 ]); (1000, [ 7 ]); (2000, [ 8 ]) ]

let test_waxman_top_pairs_ties () =
  (* Forced ties: the keys take three values, so the stable reference
     order is decided by index alone within each value. *)
  let reference ~m keys =
    let keyed = ref [] in
    Array.iteri (fun i k -> keyed := (k, i) :: !keyed) keys;
    List.sort (fun (k1, _) (k2, _) -> Float.compare k2 k1) !keyed
    |> List.filteri (fun i _ -> i < m)
    |> List.map snd |> Array.of_list
  in
  let rng = Prng.create 11 in
  let keys = Array.init 500 (fun _ -> -.float_of_int (Prng.int rng 3)) in
  List.iter
    (fun m ->
      Alcotest.(check (array int))
        (Printf.sprintf "top %d of 500 tied keys" m)
        (reference ~m keys)
        (Waxman.top_pairs ~m keys))
    [ 0; 1; 7; 166; 167; 499; 500; 900 ];
  Alcotest.(check (array int)) "all equal: latest first" [| 4; 3; 2 |]
    (Waxman.top_pairs ~m:3 (Array.make 5 (-1.)))

let test_waxman_classic_mode () =
  (* Classic accept/reject: still connected after repair, and a higher
     beta produces denser graphs on average. *)
  let count beta =
    let total = ref 0 in
    for seed = 1 to 5 do
      let g =
        Waxman.generate_classic ~beta (Prng.create seed) Spec.default
      in
      check_bool "classic connected" true (Paths.is_connected g);
      total := !total + Graph.edge_count g
    done;
    !total
  in
  check_bool "denser with higher beta" true (count 0.9 > count 0.3);
  Alcotest.check_raises "beta range"
    (Invalid_argument "Waxman.generate_classic: beta outside (0, 1]")
    (fun () ->
      ignore (Waxman.generate_classic ~beta:0. (Prng.create 1) Spec.default))

let test_watts_strogatz_degree () =
  let rng = Prng.create 9 in
  let g = Watts_strogatz.generate rng spec in
  (* k = 6 lattice: average degree stays near 6 after rewiring. *)
  check_bool "avg degree near k" true
    (Float.abs (Graph.average_degree g -. 6.) < 1.5)

let test_watts_strogatz_beta_zero_is_lattice () =
  let rng = Prng.create 2 in
  let g =
    Watts_strogatz.generate ~params:{ Watts_strogatz.beta = 0.; embedding = Watts_strogatz.Ring } rng spec
  in
  let n = Graph.vertex_count g in
  (* Pure ring lattice: every vertex has degree exactly k = 6. *)
  for v = 0 to n - 1 do
    check_int "lattice degree" 6 (Graph.degree g v)
  done

let test_watts_strogatz_params_validated () =
  Alcotest.check_raises "beta range"
    (Invalid_argument "Watts_strogatz.generate: beta outside [0, 1]")
    (fun () ->
      ignore
        (Watts_strogatz.generate
           ~params:{ Watts_strogatz.beta = 1.5; embedding = Watts_strogatz.Random }
           (Prng.create 1) spec))

let test_volchenkov_heavy_tail () =
  let rng = Prng.create 4 in
  let g = Volchenkov.generate rng Spec.default in
  let degrees =
    List.init (Graph.vertex_count g) (fun v -> Graph.degree g v)
  in
  let dmax = List.fold_left max 0 degrees in
  let avg = Graph.average_degree g in
  check_bool "hub exists (max >> mean)" true (float_of_int dmax > 2. *. avg)

let test_volchenkov_params_validated () =
  Alcotest.check_raises "gamma"
    (Invalid_argument "Volchenkov.generate: gamma <= 1") (fun () ->
      ignore
        (Volchenkov.generate
           ~params:{ Volchenkov.gamma = 1.; k_min = 1 }
           (Prng.create 1) spec))

let test_grid_structure () =
  let rng = Prng.create 6 in
  let g = Grid.generate rng spec in
  check_int "all vertices present" 32 (Graph.vertex_count g);
  check_bool "connected" true (Paths.is_connected g);
  (* Every user has exactly one access fiber. *)
  List.iter
    (fun u -> check_int "user degree 1" 1 (Graph.degree g u))
    (Graph.users g)

let test_grid_rejects_tiny () =
  Alcotest.check_raises "more users than switches"
    (Invalid_argument "Grid.generate: need a switch per user") (fun () ->
      ignore
        (Grid.generate (Prng.create 1)
           (Spec.create ~n_users:5 ~n_switches:4 ())))

let test_generate_names () =
  List.iter
    (fun (name, kind) ->
      Alcotest.(check string) "name roundtrip" name (Generate.name kind);
      check_bool "of_name" true (Generate.of_name name <> None))
    generators;
  check_bool "unknown name" true (Generate.of_name "mystery" = None)

let () =
  Alcotest.run "topology"
    [
      ( "layout",
        [
          Alcotest.test_case "distance" `Quick test_layout_distance;
          Alcotest.test_case "random points" `Quick test_layout_random_points;
          Alcotest.test_case "ring" `Quick test_layout_ring;
          Alcotest.test_case "max distance" `Quick test_layout_max_distance;
        ] );
      ( "spec",
        [
          Alcotest.test_case "default" `Quick test_spec_default;
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "edge budget clamps" `Quick
            test_spec_edge_budget_clamps;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "roles" `Quick test_assign_roles;
          Alcotest.test_case "connect components" `Quick
            test_connect_components;
          Alcotest.test_case "connect noop" `Quick test_connect_components_noop;
        ] );
      ( "generators",
        [
          Alcotest.test_case "connected" `Quick test_generators_connected;
          Alcotest.test_case "deterministic" `Quick
            test_generators_deterministic;
          Alcotest.test_case "seed variation" `Quick
            test_generator_seed_variation;
          Alcotest.test_case "waxman budget" `Quick test_waxman_edge_budget;
          Alcotest.test_case "waxman short bias" `Quick
            test_waxman_prefers_short_edges;
          Alcotest.test_case "waxman classic" `Quick test_waxman_classic_mode;
          Alcotest.test_case "waxman = sort reference" `Quick
            test_waxman_matches_reference;
          Alcotest.test_case "waxman top pairs ties" `Quick
            test_waxman_top_pairs_ties;
          Alcotest.test_case "ws degree" `Quick test_watts_strogatz_degree;
          Alcotest.test_case "ws lattice" `Quick
            test_watts_strogatz_beta_zero_is_lattice;
          Alcotest.test_case "ws params" `Quick
            test_watts_strogatz_params_validated;
          Alcotest.test_case "volchenkov tail" `Quick test_volchenkov_heavy_tail;
          Alcotest.test_case "volchenkov params" `Quick
            test_volchenkov_params_validated;
          Alcotest.test_case "grid" `Quick test_grid_structure;
          Alcotest.test_case "grid tiny" `Quick test_grid_rejects_tiny;
          Alcotest.test_case "names" `Quick test_generate_names;
        ] );
    ]
