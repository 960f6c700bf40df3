(* Unit tests for Qnet_core.Routing — Algorithm 1. *)

module Graph = Qnet_graph.Graph
open Qnet_core

let feq = Alcotest.(check (float 1e-12))
let check_bool = Alcotest.(check bool)
let params = Params.create ~alpha:1e-4 ~q:0.9 ()

(* Two parallel relay routes between u0 and u1:
     short:  u0 - s2 - u1          (2 x 1000 units, 1 swap)
     long:   u0 - s3 - s4 - u1     (3 x 1000 units, 2 swaps)
   plus a third user u5 hanging off s4. *)
let fixture () =
  let b = Graph.Builder.create () in
  let user x y = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y in
  let switch q x y =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:q ~x ~y
  in
  let u0 = user 0. 0. in
  let u1 = user 2000. 0. in
  let s2 = switch 4 1000. 0. in
  let s3 = switch 4 600. 500. in
  let s4 = switch 4 1400. 500. in
  let u5 = user 1400. 1500. in
  ignore (Graph.Builder.add_edge b u0 s2 1000.);
  ignore (Graph.Builder.add_edge b s2 u1 1000.);
  ignore (Graph.Builder.add_edge b u0 s3 1000.);
  ignore (Graph.Builder.add_edge b s3 s4 1000.);
  ignore (Graph.Builder.add_edge b s4 u1 1000.);
  ignore (Graph.Builder.add_edge b s4 u5 1000.);
  (Graph.Builder.freeze b, u0, u1, s2, s3, s4, u5)

let test_edge_weight () =
  let g, _, _, _, _, _, _ = fixture () in
  let e = Graph.edge g 0 in
  feq "alpha L - ln q" (0.1 -. log 0.9) (Routing.edge_weight params e)

let test_prefers_fewer_swaps () =
  let g, u0, u1, s2, _, _, _ = fixture () in
  let capacity = Capacity.of_graph g in
  match Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 with
  | None -> Alcotest.fail "expected a channel"
  | Some c ->
      Alcotest.(check (list int)) "short route" [ u0; s2; u1 ] c.Channel.path;
      feq "its Eq.1 rate" (0.9 *. exp (-0.2)) (Channel.rate_prob c)

let test_capacity_forces_detour () =
  let g, u0, u1, s2, s3, s4, _ = fixture () in
  let capacity = Capacity.of_graph g in
  (* Exhaust the short switch: two channels drain its 4 qubits. *)
  Capacity.consume_channel capacity [ u0; s2; u1 ];
  Capacity.consume_channel capacity [ u0; s2; u1 ];
  match Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 with
  | None -> Alcotest.fail "detour should exist"
  | Some c ->
      Alcotest.(check (list int))
        "long route" [ u0; s3; s4; u1 ]
        c.Channel.path

let test_no_capacity_no_channel () =
  let g, u0, u1, s2, s3, s4, _ = fixture () in
  let capacity = Capacity.of_graph g in
  Capacity.consume_channel capacity [ u0; s2; u1 ];
  Capacity.consume_channel capacity [ u0; s2; u1 ];
  Capacity.consume_channel capacity [ u0; s3; s4; u1 ];
  Capacity.consume_channel capacity [ u0; s3; s4; u1 ];
  check_bool "all switches drained" true
    (Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 = None)

let test_never_routes_through_users () =
  (* u0 - u1 - u2 in a line: the only u0..u2 route crosses user u1 and
     must be rejected. *)
  let b = Graph.Builder.create () in
  let user x = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y:0. in
  let u0 = user 0. and u1 = user 1000. and u2 = user 2000. in
  ignore (Graph.Builder.add_edge b u0 u1 1000.);
  ignore (Graph.Builder.add_edge b u1 u2 1000.);
  let g = Graph.Builder.freeze b in
  let capacity = Capacity.of_graph g in
  check_bool "no channel through a user" true
    (Routing.best_channel g params ~capacity ~src:u0 ~dst:u2 = None);
  (* But the direct neighbours are fine. *)
  check_bool "direct neighbour channel" true
    (Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 <> None)

let test_static_low_qubit_switch_excluded () =
  (* Algorithm 1 line 11: a switch with fewer than 2 qubits never
     relays. *)
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 =
    Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:2000. ~y:0.
  in
  let s =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:1 ~x:1000. ~y:0.
  in
  ignore (Graph.Builder.add_edge b u0 s 1000.);
  ignore (Graph.Builder.add_edge b s u1 1000.);
  let g = Graph.Builder.freeze b in
  let capacity = Capacity.of_graph g in
  check_bool "1-qubit switch unusable" true
    (Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 = None)

let test_q_zero_direct_only () =
  let g, u0, u1, _, _, _, u5 = fixture () in
  let p0 = Params.create ~alpha:1e-4 ~q:0. () in
  let capacity = Capacity.of_graph g in
  check_bool "no direct fiber, no channel" true
    (Routing.best_channel g p0 ~capacity ~src:u0 ~dst:u1 = None);
  ignore u5;
  (* Add a graph that does have a direct fiber. *)
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let c = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:1. ~y:0. in
  ignore (Graph.Builder.add_edge b a c 1000.);
  let g2 = Graph.Builder.freeze b in
  let cap2 = Capacity.of_graph g2 in
  match Routing.best_channel g2 p0 ~capacity:cap2 ~src:a ~dst:c with
  | None -> Alcotest.fail "direct channel should survive q = 0"
  | Some ch -> feq "direct rate" (exp (-0.1)) (Channel.rate_prob ch)

let test_best_channels_from () =
  let g, u0, u1, _, _, _, u5 = fixture () in
  let capacity = Capacity.of_graph g in
  let all = Routing.best_channels_from g params ~capacity ~src:u0 in
  Alcotest.(check (list int))
    "reaches both other users" [ u1; u5 ]
    (List.map fst all);
  (* Consistency with the single-pair variant. *)
  List.iter
    (fun (dst, (c : Channel.t)) ->
      match Routing.best_channel g params ~capacity ~src:u0 ~dst with
      | None -> Alcotest.fail "pairwise variant disagrees"
      | Some c' ->
          feq "same rate"
            (Channel.rate_prob c')
            (Channel.rate_prob c))
    all

let test_all_pairs_best () =
  let g, u0, u1, _, _, _, u5 = fixture () in
  let capacity = Capacity.of_graph g in
  let cs = Routing.all_pairs_best g params ~capacity ~users:[ u0; u1; u5 ] in
  Alcotest.(check int) "three unordered pairs" 3 (List.length cs);
  let pairs =
    List.sort compare (List.map Channel.endpoints cs)
  in
  Alcotest.(check (list (pair int int)))
    "each pair once"
    [ (u0, u1); (u0, u5); (u1, u5) ]
    pairs

let test_endpoint_validation () =
  let g, u0, _, s2, _, _, _ = fixture () in
  let capacity = Capacity.of_graph g in
  Alcotest.check_raises "switch endpoint"
    (Invalid_argument "Routing: endpoint is not a quantum user") (fun () ->
      ignore (Routing.best_channel g params ~capacity ~src:u0 ~dst:s2));
  Alcotest.check_raises "src = dst"
    (Invalid_argument "Routing.best_channel: src = dst") (fun () ->
      ignore (Routing.best_channel g params ~capacity ~src:u0 ~dst:u0))

let test_channel_is_optimal_vs_exhaustive () =
  (* Cross-check Algorithm 1 against brute-force path enumeration. *)
  let g, u0, u1, _, _, _, _ = fixture () in
  let capacity = Capacity.of_graph g in
  let best =
    match Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 with
    | Some c -> Channel.rate_prob c
    | None -> 0.
  in
  let brute =
    Exact.all_simple_paths g ~src:u0 ~dst:u1 ~max_hops:6
    |> List.map (fun p -> Channel.rate_prob (Channel.make_exn g params p))
    |> List.fold_left Float.max 0.
  in
  feq "matches brute force" brute best

(* ---- point queries against the full Dijkstra ---- *)

module Paths = Qnet_graph.Paths
module Cases = Routing_cases

(* Algorithm 1 spelt out on [Paths.dijkstra ~target]: the slow reference
   for [best_channel]'s early-exit search. *)
let reference_channel ?(exclude = Routing.no_exclusion) g params ~capacity
    ~src ~dst =
  let admit v =
    exclude.Routing.vertex_ok v
    &&
    if Graph.is_user g v then v <> src else Capacity.can_relay capacity v
  in
  let r =
    Paths.dijkstra g ~source:src ~weight:(Routing.edge_weight params) ~admit
      ~expand:(Graph.is_switch g) ~edge_ok:exclude.Routing.edge_ok ~target:dst
      ()
  in
  Option.map
    (fun p -> (Channel.make_exn g params p).Channel.path)
    (Paths.extract_path r ~source:src ~target:dst)

let point_queries_agree ?exclude g ~capacity users =
  List.for_all
    (fun src ->
      List.for_all
        (fun dst ->
          src = dst
          || Option.map
               (fun (c : Channel.t) -> c.path)
               (Routing.best_channel ?exclude g params ~capacity ~src ~dst)
             = reference_channel ?exclude g params ~capacity ~src ~dst)
        users)
    users

let prop_best_channel_is_dijkstra =
  QCheck.Test.make ~name:"best_channel = extract_path of dijkstra ~target"
    ~count:200
    QCheck.(pair (Cases.arb ~integer_lengths:false) bool)
    (fun (case, integer_lengths) ->
      let { Cases.g; exclude; group } =
        Cases.instance { case with Cases.integer_lengths }
      in
      point_queries_agree ~exclude g ~capacity:(Capacity.of_graph g) group)

(* The search workspace is per domain and outlives graphs: a small
   network, a 10k-switch grid, then the small one again must each route
   as the fresh-array reference does — and so must a query issued from
   inside another query's admission callback. *)
let test_scratch_reuse_across_graphs () =
  let net n seed =
    let spec =
      Qnet_topology.Spec.create ~n_users:4 ~n_switches:n ~qubits_per_switch:4
        ()
    in
    Qnet_topology.Grid.generate (Qnet_util.Prng.create seed) spec
  in
  let small = net 30 1 and big = net 10_000 2 in
  let agree name g =
    check_bool name true
      (point_queries_agree g ~capacity:(Capacity.of_graph g) (Graph.users g))
  in
  agree "small" small;
  agree "10k" big;
  agree "small again" small;
  let big_capacity = Capacity.of_graph big in
  let bsrc, bdst =
    match Graph.users big with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let nested = ref None in
  let exclude =
    {
      Routing.no_exclusion with
      vertex_ok =
        (fun _ ->
          if !nested = None then
            nested :=
              Some
                (Option.map
                   (fun (c : Channel.t) -> c.path)
                   (Routing.best_channel big params ~capacity:big_capacity
                      ~src:bsrc ~dst:bdst));
          true);
    }
  in
  check_bool "outer query around a nested one" true
    (point_queries_agree ~exclude small ~capacity:(Capacity.of_graph small)
       (Graph.users small));
  let expected =
    reference_channel big params ~capacity:big_capacity ~src:bsrc ~dst:bdst
  in
  check_bool "nested query" true (!nested = Some expected)

let () =
  Alcotest.run "routing"
    [
      ( "algorithm 1",
        [
          Alcotest.test_case "edge weight" `Quick test_edge_weight;
          Alcotest.test_case "prefers fewer swaps" `Quick
            test_prefers_fewer_swaps;
          Alcotest.test_case "capacity detour" `Quick
            test_capacity_forces_detour;
          Alcotest.test_case "capacity exhausted" `Quick
            test_no_capacity_no_channel;
          Alcotest.test_case "users never relay" `Quick
            test_never_routes_through_users;
          Alcotest.test_case "low-qubit switch" `Quick
            test_static_low_qubit_switch_excluded;
          Alcotest.test_case "q = 0" `Quick test_q_zero_direct_only;
          Alcotest.test_case "optimal vs brute force" `Quick
            test_channel_is_optimal_vs_exhaustive;
        ] );
      ( "fan-out",
        [
          Alcotest.test_case "best_channels_from" `Quick
            test_best_channels_from;
          Alcotest.test_case "all_pairs_best" `Quick test_all_pairs_best;
          Alcotest.test_case "endpoint validation" `Quick
            test_endpoint_validation;
        ] );
      ( "early exit",
        [
          QCheck_alcotest.to_alcotest prop_best_channel_is_dijkstra;
          Alcotest.test_case "scratch reuse across graphs" `Quick
            test_scratch_reuse_across_graphs;
        ] );
    ]
