(* Unit tests for Qnet_graph.Paths. *)

module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let length_weight (e : Graph.edge) = e.Graph.length

(* Diamond:      1
              /     \
            0        3 --- 4
              \     /
                2            with 0-1-3 short and 0-2-3 long. *)
let diamond () =
  let b = Graph.Builder.create () in
  let add () = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:2 ~x:0. ~y:0. in
  let v0 = add () and v1 = add () and v2 = add () and v3 = add () in
  let v4 = add () in
  ignore (Graph.Builder.add_edge b v0 v1 1.);
  ignore (Graph.Builder.add_edge b v1 v3 1.);
  ignore (Graph.Builder.add_edge b v0 v2 5.);
  ignore (Graph.Builder.add_edge b v2 v3 5.);
  ignore (Graph.Builder.add_edge b v3 v4 2.);
  (Graph.Builder.freeze b, (v0, v1, v2, v3, v4))

let test_dijkstra_distances () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  Alcotest.(check (float 1e-9)) "source" 0. r.Paths.dist.(v0);
  Alcotest.(check (float 1e-9)) "v1" 1. r.Paths.dist.(v1);
  Alcotest.(check (float 1e-9)) "v2 direct" 5. r.Paths.dist.(v2);
  Alcotest.(check (float 1e-9)) "v3 via v1" 2. r.Paths.dist.(v3);
  Alcotest.(check (float 1e-9)) "v4" 4. r.Paths.dist.(v4)

let test_extract_path () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  Alcotest.(check (option (list int)))
    "path to v4"
    (Some [ v0; v1; v3; v4 ])
    (Paths.extract_path r ~source:v0 ~target:v4)

let test_admit_filter () =
  let g, (v0, v1, v2, v3, _) = diamond () in
  (* Block the short middle vertex: the long branch must be taken. *)
  let admit v = v <> v1 in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit () in
  Alcotest.(check (float 1e-9)) "detour distance" 10. r.Paths.dist.(v3);
  check_bool "blocked vertex unreachable" true (r.Paths.dist.(v1) = infinity);
  Alcotest.(check (option (list int)))
    "detour path"
    (Some [ v0; v2; v3 ])
    (Paths.extract_path r ~source:v0 ~target:v3)

let test_expand_filter () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  (* v1 and v2 may be entered but not relay: v3 becomes unreachable. *)
  let expand v = v <> v1 && v <> v2 in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~expand () in
  Alcotest.(check (float 1e-9)) "enterable terminal" 1. r.Paths.dist.(v1);
  check_bool "beyond non-expandable unreachable" true
    (r.Paths.dist.(v3) = infinity);
  check_bool "v4 unreachable too" true (r.Paths.dist.(v4) = infinity)

let test_unreachable () =
  let b = Graph.Builder.create () in
  let v0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let v1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:1. ~y:0. in
  let g = Graph.Builder.freeze b in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  check_bool "isolated unreachable" true (r.Paths.dist.(v1) = infinity);
  Alcotest.(check (option (list int)))
    "no path" None
    (Paths.extract_path r ~source:v0 ~target:v1)

let test_negative_weight_rejected () =
  let g, (v0, _, _, _, _) = diamond () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Paths.dijkstra: negative edge weight") (fun () ->
      ignore (Paths.dijkstra g ~source:v0 ~weight:(fun _ -> -1.) ()))

let test_shortest_path_wrapper () =
  let g, (v0, v1, _, v3, _) = diamond () in
  match Paths.shortest_path g ~source:v0 ~target:v3 ~weight:length_weight () with
  | None -> Alcotest.fail "expected a path"
  | Some (path, w) ->
      Alcotest.(check (list int)) "path" [ v0; v1; v3 ] path;
      Alcotest.(check (float 1e-9)) "weight" 2. w

let test_bfs () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  let hops = Paths.bfs_hops g ~source:v0 in
  check_int "hop 0" 0 hops.(v0);
  check_int "hop 1" 1 hops.(v1);
  check_int "hop v2" 1 hops.(v2);
  check_int "hop v3" 2 hops.(v3);
  check_int "hop v4" 3 hops.(v4);
  let order = Paths.bfs_order g ~source:v0 in
  check_int "order covers all" 5 (List.length order);
  check_int "starts at source" v0 (List.hd order)

let test_components () =
  let b = Graph.Builder.create () in
  let add k = Graph.Builder.add_vertex b ~kind:k ~qubits:0 ~x:0. ~y:0. in
  let a0 = add Graph.User and a1 = add Graph.User in
  let b0 = add Graph.Switch and b1 = add Graph.User in
  ignore (Graph.Builder.add_edge b a0 a1 1.);
  ignore (Graph.Builder.add_edge b b0 b1 1.);
  let g = Graph.Builder.freeze b in
  Alcotest.(check (list (list int)))
    "two components"
    [ [ a0; a1 ]; [ b0; b1 ] ]
    (Paths.connected_components g);
  check_bool "not connected" false (Paths.is_connected g);
  check_bool "users split" false (Paths.users_connected g)

let test_users_connected_ignores_switch_islands () =
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:1. ~y:0. in
  ignore (Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:9. ~y:9.);
  ignore (Graph.Builder.add_edge b u0 u1 1.);
  let g = Graph.Builder.freeze b in
  check_bool "graph not connected" false (Paths.is_connected g);
  check_bool "users still connected" true (Paths.users_connected g)

let test_path_validation () =
  let g, (v0, v1, v2, v3, _) = diamond () in
  check_bool "valid path" true (Paths.path_is_valid g [ v0; v1; v3 ]);
  check_bool "missing edge" false (Paths.path_is_valid g [ v0; v3 ]);
  check_bool "repeat vertex" false
    (Paths.path_is_valid g [ v0; v1; v3; v1 ]);
  check_bool "empty invalid" false (Paths.path_is_valid g []);
  check_bool "singleton valid" true (Paths.path_is_valid g [ v2 ])

let test_path_measures () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  Alcotest.(check (float 1e-9))
    "length" 4.
    (Paths.path_length g [ v0; v1; v3; v4 ]);
  check_int "edge count" 3 (List.length (Paths.path_edges g [ v0; v1; v3; v4 ]));
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Paths: consecutive vertices not adjacent") (fun () ->
      ignore (Paths.path_length g [ v0; v4 ]))

(* ?target is an early exit, not a different algorithm: the settled
   prefix — in particular the target itself — must agree with the full
   run for every choice of target. *)
let test_target_early_exit () =
  let g, (v0, _, _, _, _) = diamond () in
  let full = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  for t = 0 to Graph.vertex_count g - 1 do
    let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~target:t () in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "dist to %d" t)
      full.Paths.dist.(t) r.Paths.dist.(t);
    Alcotest.(check (option (list int)))
      (Printf.sprintf "path to %d" t)
      (Paths.extract_path full ~source:v0 ~target:t)
      (Paths.extract_path r ~source:v0 ~target:t)
  done

let test_target_with_filters () =
  let g, (v0, v1, _, v3, _) = diamond () in
  let admit v = v <> v1 in
  let full = Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit () in
  let r =
    Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit ~target:v3 ()
  in
  Alcotest.(check (float 1e-12))
    "detour distance with target" full.Paths.dist.(v3) r.Paths.dist.(v3);
  Alcotest.check_raises "bad target"
    (Invalid_argument "Paths.dijkstra: bad target") (fun () ->
      ignore (Paths.dijkstra g ~source:v0 ~weight:length_weight ~target:99 ()))

(* ---- nearest: one early-exit multi-source search ---- *)

module Tm = Qnet_telemetry.Metrics
module Budget = Qnet_overload.Budget

let counter name = Tm.Counter.value (Tm.counter name)

let with_metrics f =
  Tm.set_enabled true;
  Tm.reset ();
  Fun.protect ~finally:(fun () -> Tm.set_enabled false; Tm.reset ()) f

(* The work of one search is pinned exactly: from v0 to v4 it pops v0,
   v1, v3, v4 (v2 stays on the frontier) and relaxes the 2 + 2 + 3
   edges of the three expanded vertices. *)
let test_nearest_counts () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  with_metrics (fun () ->
      let path =
        Paths.nearest g ~sources:[ v0 ] ~stop:(fun v -> v = v4)
          ~weight:length_weight ()
      in
      Alcotest.(check (option (list int))) "path" (Some [ v0; v1; v3; v4 ]) path;
      check_int "runs" 1 (counter "graph.dijkstra.runs");
      check_int "pops" 4 (counter "graph.dijkstra.heap_pops");
      check_int "relaxations" 7 (counter "graph.dijkstra.edge_relaxations");
      check_int "pushes" 5 (counter "graph.dijkstra.heap_pushes");
      check_int "improvements" 4 (counter "graph.dijkstra.dist_improvements"))

(* The tallies reach the registry even when the fuel runs out mid-search:
   two pops are paid for, the third raises before it is counted. *)
let test_nearest_counts_on_exhaustion () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  with_metrics (fun () ->
      (match
         Paths.nearest g ~sources:[ v0 ] ~stop:(fun v -> v = v4)
           ~weight:length_weight ~budget:(Budget.create ~fuel:2) ()
       with
      | _ -> Alcotest.fail "expected the budget to run out"
      | exception Budget.Exhausted _ -> ());
      check_int "pops flushed" 2 (counter "graph.dijkstra.heap_pops");
      check_int "relaxations flushed" 4
        (counter "graph.dijkstra.edge_relaxations"));
  (* The workspace went back to the domain: the next search is sound. *)
  Alcotest.(check (option (list int)))
    "search after exhaustion" (Some [ v0; v1; v3; v4 ])
    (Paths.nearest g ~sources:[ v0 ] ~stop:(fun v -> v = v4)
       ~weight:length_weight ())

(* One source and a target test is [dijkstra ~target] + [extract_path],
   for every pair and under the admit/expand filters — and an infinite
   weight, like a missing fiber, reaches nothing. *)
let test_nearest_is_point_query () =
  let g, (v0, v1, v2, _, _) = diamond () in
  let n = Graph.vertex_count g in
  let cut_v0_v1 (e : Graph.edge) =
    if (e.Graph.a = v0 && e.Graph.b = v1) || (e.Graph.a = v1 && e.Graph.b = v0)
    then infinity
    else length_weight e
  in
  let filters =
    [
      ((fun _ -> true), (fun _ -> true), length_weight);
      ((fun v -> v <> v1), (fun _ -> true), length_weight);
      ((fun _ -> true), (fun v -> v <> v2), length_weight);
      ((fun _ -> true), (fun v -> v <> v2), cut_v0_v1);
    ]
  in
  List.iter
    (fun (admit, expand, weight) ->
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          let r =
            Paths.dijkstra g ~source:s ~weight ~admit ~expand ~target:t ()
          in
          Alcotest.(check (option (list int)))
            (Printf.sprintf "%d -> %d" s t)
            (Paths.extract_path r ~source:s ~target:t)
            (Paths.nearest g ~sources:[ s ] ~stop:(fun v -> v = t) ~weight
               ~admit ~expand ())
        done
      done)
    filters

(* Several sources: the path starts at the source nearest to the first
   vertex passing [stop], and its length is the minimum over sources. *)
let test_nearest_multi_source () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  Alcotest.(check (option (list int)))
    "v2 is nearer v0 than v4" (Some [ v0; v2 ])
    (Paths.nearest g ~sources:[ v4; v0 ] ~stop:(fun v -> v = v2)
       ~weight:length_weight ());
  Alcotest.(check (option (list int)))
    "first settled of two stop vertices" (Some [ v0; v1; v3 ])
    (Paths.nearest g ~sources:[ v0 ] ~stop:(fun v -> v = v3 || v = v2)
       ~weight:length_weight ());
  Alcotest.(check (option (list int)))
    "a source passing stop is its own path" (Some [ v1 ])
    (Paths.nearest g ~sources:[ v0; v1 ] ~stop:(fun v -> v = v1)
       ~weight:length_weight ());
  Alcotest.(check (option (list int)))
    "no sources" None
    (Paths.nearest g ~sources:[] ~stop:(fun _ -> true) ~weight:length_weight ());
  let n = Graph.vertex_count g in
  let full = Array.init n (fun s -> Paths.dijkstra g ~source:s ~weight:length_weight ()) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for t = 0 to n - 1 do
        if t <> a && t <> b then
          match
            Paths.nearest g ~sources:[ a; b ] ~stop:(fun v -> v = t)
              ~weight:length_weight ()
          with
          | None -> Alcotest.fail "diamond is connected"
          | Some path ->
              check_bool "starts at a source" true
                (List.hd path = a || List.hd path = b);
              Alcotest.(check (float 1e-12))
                (Printf.sprintf "{%d,%d} -> %d" a b t)
                (Float.min full.(a).Paths.dist.(t) full.(b).Paths.dist.(t))
                (Paths.path_length g path)
      done
    done
  done

let test_nearest_rejects () =
  let g, (v0, _, _, _, v4) = diamond () in
  Alcotest.check_raises "bad source"
    (Invalid_argument "Paths.nearest: bad source") (fun () ->
      ignore
        (Paths.nearest g ~sources:[ v0; 99 ] ~stop:(fun _ -> false)
           ~weight:length_weight ()));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Paths.nearest: negative edge weight") (fun () ->
      ignore
        (Paths.nearest g ~sources:[ v0 ] ~stop:(fun v -> v = v4)
           ~weight:(fun _ -> -1.) ()))

(* A line of [n] vertices with unit fibers. *)
let line n =
  let b = Graph.Builder.create () in
  let vs =
    Array.init n (fun i ->
        Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2
          ~x:(float_of_int i) ~y:0.)
  in
  for i = 1 to n - 1 do
    ignore (Graph.Builder.add_edge b vs.(i - 1) vs.(i) 1.)
  done;
  Graph.Builder.freeze b

(* The workspace is shared by every search of the domain: a small graph,
   then a 10k-vertex one, then the small one again must each see a
   clean slate, and so must a search nested inside a callback of
   another. *)
let test_nearest_scratch_reuse () =
  let small, (v0, v1, _, v3, v4) = diamond () in
  let big = line 10_000 in
  let small_path () =
    Paths.nearest small ~sources:[ v0 ] ~stop:(fun v -> v = v4)
      ~weight:length_weight ()
  in
  let big_path () =
    Paths.nearest big ~sources:[ 9_999 ] ~stop:(fun v -> v = 0)
      ~weight:length_weight ()
  in
  let expect_small = Some [ v0; v1; v3; v4 ] in
  let expect_big = Some (List.init 10_000 (fun i -> 9_999 - i)) in
  Alcotest.(check (option (list int))) "small" expect_small (small_path ());
  Alcotest.(check (option (list int))) "big" expect_big (big_path ());
  Alcotest.(check (option (list int))) "small again" expect_small (small_path ());
  let inner = ref None in
  let weight e =
    if !inner = None then inner := Some (big_path ());
    length_weight e
  in
  Alcotest.(check (option (list int)))
    "outer search around a nested one" expect_small
    (Paths.nearest small ~sources:[ v0 ] ~stop:(fun v -> v = v4) ~weight ());
  Alcotest.(check (option (option (list int))))
    "nested search" (Some expect_big) !inner;
  Alcotest.(check (option (list int))) "big after nesting" expect_big (big_path ())


(* One full search answers every target: [settled_dist]/[settled_path]
   are [dijkstra]'s distances and paths, with the path's edge ids, under
   the same filters — and the search adds nothing to the counters. *)
let test_settle_reads () =
  let g, (_, v1, v2, _, _) = diamond () in
  let n = Graph.vertex_count g in
  List.iter
    (fun (admit, expand) ->
      for s = 0 to n - 1 do
        let r =
          Paths.dijkstra g ~source:s ~weight:length_weight ~admit ~expand ()
        in
        let read ws =
          List.init n (fun t ->
              (Paths.settled_dist ws t, Paths.settled_path ws t))
        in
        let got =
          with_metrics (fun () ->
              let got =
                Paths.settle g ~sources:[ s ] ~weight:length_weight ~admit
                  ~expand ~read ()
              in
              check_int "not counted" 0 (counter "graph.dijkstra.runs");
              got)
        in
        List.iteri
          (fun t (d, p) ->
            let what = Printf.sprintf "%d -> %d" s t in
            Alcotest.(check (float 0.)) what r.Paths.dist.(t) d;
            Alcotest.(check (option (pair (list int) (list int))))
              what
              (Option.map
                 (fun vs -> (vs, Paths.path_edges g vs))
                 (Paths.extract_path r ~source:s ~target:t))
              p)
          got
      done)
    [
      ((fun _ -> true), fun _ -> true);
      ((fun v -> v <> v1), fun _ -> true);
      ((fun _ -> true), fun v -> v <> v2);
    ]

let () =
  Alcotest.run "paths"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "extract path" `Quick test_extract_path;
          Alcotest.test_case "admit filter" `Quick test_admit_filter;
          Alcotest.test_case "expand filter" `Quick test_expand_filter;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "negative weight" `Quick
            test_negative_weight_rejected;
          Alcotest.test_case "wrapper" `Quick test_shortest_path_wrapper;
          Alcotest.test_case "target early exit" `Quick test_target_early_exit;
          Alcotest.test_case "target with filters" `Quick
            test_target_with_filters;
        ] );
      ( "nearest",
        [
          Alcotest.test_case "work counts" `Quick test_nearest_counts;
          Alcotest.test_case "counts flushed on exhaustion" `Quick
            test_nearest_counts_on_exhaustion;
          Alcotest.test_case "point query = dijkstra ~target" `Quick
            test_nearest_is_point_query;
          Alcotest.test_case "multi-source" `Quick test_nearest_multi_source;
          Alcotest.test_case "rejects" `Quick test_nearest_rejects;
          Alcotest.test_case "scratch reuse" `Quick test_nearest_scratch_reuse;
          Alcotest.test_case "settle reads" `Quick test_settle_reads;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "user connectivity" `Quick
            test_users_connected_ignores_switch_islands;
        ] );
      ( "paths",
        [
          Alcotest.test_case "validation" `Quick test_path_validation;
          Alcotest.test_case "measures" `Quick test_path_measures;
        ] );
    ]
