(* Unit tests for Qnet_core.Multi_group — concurrent entanglement
   groups. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let network ?(users = 9) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:30
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

let partition k users =
  let rec chunk = function
    | [] -> []
    | l ->
        let rec take n = function
          | [] -> ([], [])
          | x :: rest when n > 0 ->
              let a, b = take (n - 1) rest in
              (x :: a, b)
          | rest -> ([], rest)
        in
        let head, tail = take k l in
        head :: chunk tail
  in
  List.filter (fun c -> c <> []) (chunk users)

let test_validation () =
  let g = network 1 in
  Alcotest.check_raises "no groups"
    (Invalid_argument "Multi_group.solve: no groups") (fun () ->
      ignore (Multi_group.solve g params ~groups:[]));
  Alcotest.check_raises "empty group"
    (Invalid_argument "Multi_group.solve: empty group") (fun () ->
      ignore (Multi_group.solve g params ~groups:[ [] ]));
  let u = List.hd (Graph.users g) in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Multi_group.solve: groups overlap") (fun () ->
      ignore (Multi_group.solve g params ~groups:[ [ u ]; [ u ] ]));
  let s = List.hd (Graph.switches g) in
  Alcotest.check_raises "switch member"
    (Invalid_argument "Multi_group.solve: group member is not a user")
    (fun () -> ignore (Multi_group.solve g params ~groups:[ [ s ] ]))

let check_result g (r : Multi_group.t) =
  (* Aggregate switch usage over all served groups respects budgets. *)
  let usage = Hashtbl.create 16 in
  List.iter
    (fun (gr : Multi_group.group_result) ->
      match gr.Multi_group.tree with
      | None -> ()
      | Some tree ->
          check_bool "group spanned" true
            (Ent_tree.spans_users tree gr.Multi_group.group);
          List.iter
            (fun (s, n) ->
              Hashtbl.replace usage s
                (n + (try Hashtbl.find usage s with Not_found -> 0)))
            (Ent_tree.qubit_usage tree))
    r.Multi_group.groups;
  Hashtbl.iter
    (fun s n ->
      check_bool
        (Printf.sprintf "shared capacity at switch %d" s)
        true
        (n <= Graph.qubits g s))
    usage

let test_sequential_valid () =
  for seed = 1 to 10 do
    let g = network seed in
    let groups = partition 3 (Graph.users g) in
    let r = Multi_group.solve ~strategy:Multi_group.Sequential g params ~groups in
    check_result g r;
    check_int "one result per group" (List.length groups)
      (List.length r.Multi_group.groups)
  done

let test_round_robin_valid () =
  for seed = 1 to 10 do
    let g = network seed in
    let groups = partition 3 (Graph.users g) in
    let r = Multi_group.solve ~strategy:Multi_group.Round_robin g params ~groups in
    check_result g r
  done

let test_single_group_matches_prim () =
  (* One group covering all users degenerates to Algorithm 4. *)
  let g = network 5 in
  let users = Graph.users g in
  let r = Multi_group.solve g params ~groups:[ users ] in
  let direct = Alg_prim.solve ~start:(List.hd users) g params in
  match (r.Multi_group.groups, direct) with
  | [ { Multi_group.tree = Some t1; _ } ], Some t2 ->
      Alcotest.(check (float 1e-9))
        "same rate as Algorithm 4"
        (Ent_tree.rate_neg_log t2) (Ent_tree.rate_neg_log t1)
  | [ { Multi_group.tree = None; _ } ], None -> ()
  | _ -> Alcotest.fail "disagreement with Algorithm 4"

let test_summary_fields () =
  let g = network 7 in
  let groups = partition 3 (Graph.users g) in
  let r = Multi_group.solve g params ~groups in
  let served_rates =
    List.filter_map
      (fun (gr : Multi_group.group_result) ->
        match gr.Multi_group.tree with None -> None | Some _ -> Some gr.Multi_group.rate)
      r.Multi_group.groups
  in
  let expected_min =
    List.fold_left Float.min
      (if List.length served_rates = List.length groups then 1. else 0.)
      (List.map
         (fun (gr : Multi_group.group_result) -> gr.Multi_group.rate)
         r.Multi_group.groups)
  in
  Alcotest.(check (float 1e-12)) "min rate" expected_min r.Multi_group.min_rate;
  check_bool "all_feasible consistent" true
    (r.Multi_group.all_feasible
    = List.for_all
        (fun (gr : Multi_group.group_result) -> gr.Multi_group.tree <> None)
        r.Multi_group.groups)

let test_capacity_contention () =
  (* Two pairs forced through the same 2-qubit hub: only one can be
     served. *)
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
  let g = Graph.Builder.freeze b in
  let r = Multi_group.solve g params ~groups:[ [ a0; a1 ]; [ b0; b1 ] ] in
  let served =
    List.length
      (List.filter
         (fun (gr : Multi_group.group_result) -> gr.Multi_group.tree <> None)
         r.Multi_group.groups)
  in
  check_int "exactly one group served" 1 served;
  check_bool "not all feasible" false r.Multi_group.all_feasible;
  Alcotest.(check (float 0.)) "min rate is 0" 0. r.Multi_group.min_rate

let test_failed_group_rolls_back () =
  (* Contended hub again, but the second group has an alternate relay:
     sequential order serves group A through the hub, then group B must
     still succeed via its relay — and if B had grabbed the hub first
     and failed later, rollback would matter.  Construct the rollback
     case directly: group B is a triangle that cannot complete, and its
     partial consumption must not block group C. *)
  let b = Graph.Builder.create () in
  let user x y = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y in
  let b0 = user 0. 0. in
  let b1 = user 2000. 0. in
  let b2 = user 9500. 9500. (* unreachable *) in
  let c0 = user 0. 1000. in
  let c1 = user 2000. 1000. in
  let hub =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:500.
  in
  List.iter
    (fun u -> ignore (Graph.Builder.add_edge b u hub 1300.))
    [ b0; b1; c0; c1 ];
  let g = Graph.Builder.freeze b in
  (* Group B = {b0, b1, b2}: b2 unreachable, so B fails after possibly
     consuming the hub for b0-b1.  Group C = {c0, c1} then needs the
     hub. *)
  let r =
    Multi_group.solve ~strategy:Multi_group.Sequential g params
      ~groups:[ [ b0; b1; b2 ]; [ c0; c1 ] ]
  in
  (match r.Multi_group.groups with
  | [ gb; gc ] ->
      check_bool "B failed" true (gb.Multi_group.tree = None);
      check_bool "C served thanks to rollback" true
        (gc.Multi_group.tree <> None)
  | _ -> Alcotest.fail "two groups expected")

(* ---- the multi-source attachment against the per-source reference ---- *)

module Cases = Routing_cases
module Tm = Qnet_telemetry.Metrics
module Budget = Qnet_overload.Budget

(* Every prefix split of the group into inside / outside users. *)
let splits group =
  List.init
    (List.length group - 1)
    (fun i ->
      ( List.filteri (fun j _ -> j <= i) group,
        List.filteri (fun j _ -> j > i) group ))

(* A returned attachment must be a real one: inside to outside, clear of
   the exclusion, relaying only through switches that can. *)
let attachment_valid g exclude capacity inside outside (c : Channel.t) =
  let ends_ok a b = List.mem a inside && List.mem b outside in
  (ends_ok c.src c.dst || ends_ok c.dst c.src)
  && Routing.path_ok g exclude c.path
  && List.for_all (Capacity.can_relay capacity) (Channel.interior_switches c)

let prop_attachment_identical =
  QCheck.Test.make ~name:"tie-free: attachment = per-source reference"
    ~count:300 (Cases.arb ~integer_lengths:false) (fun case ->
      let { Cases.g; exclude; group } = Cases.instance case in
      let capacity = Capacity.of_graph g in
      List.for_all
        (fun (inside, outside) ->
          let member v = List.mem v outside in
          let fast =
            Routing.best_attachment ~exclude g params ~capacity ~inside
              ~outside:member
          in
          let slow =
            Cases.reference_attachment ~exclude g params ~capacity ~inside
              ~outside:member
          in
          Option.map (fun (c : Channel.t) -> c.path) fast
          = Option.map (fun (c : Channel.t) -> c.path) slow
          &&
          match fast with
          | None -> true
          | Some c -> attachment_valid g exclude capacity inside outside c)
        (splits group))

let prop_prim_identical =
  QCheck.Test.make ~name:"tie-free: prim_for_users = per-source reference"
    ~count:300 (Cases.arb ~integer_lengths:false) (fun case ->
      let { Cases.g; exclude; group } = Cases.instance case in
      let fast =
        Multi_group.prim_for_users ~exclude g params
          ~capacity:(Capacity.of_graph g) ~users:group
      in
      let slow =
        Cases.reference_prim ~exclude g params ~capacity:(Capacity.of_graph g)
          ~users:group
      in
      Cases.paths (Option.map (fun t -> t.Ent_tree.channels) fast)
      = Cases.paths slow)

(* With integer lengths equal-rate channels abound, and the two searches
   may break a tie differently — but never pick a worse channel. *)
let prop_attachment_rate_on_ties =
  QCheck.Test.make ~name:"ties: attachment rate = reference rate" ~count:300
    (Cases.arb ~integer_lengths:true) (fun case ->
      let { Cases.g; exclude; group } = Cases.instance case in
      let capacity = Capacity.of_graph g in
      List.for_all
        (fun (inside, outside) ->
          let member v = List.mem v outside in
          match
            ( Routing.best_attachment ~exclude g params ~capacity ~inside
                ~outside:member,
              Cases.reference_attachment ~exclude g params ~capacity ~inside
                ~outside:member )
          with
          | None, None -> true
          | Some a, Some b ->
              let pa = Channel.rate_prob a and pb = Channel.rate_prob b in
              Float.abs (pa -. pb) <= 1e-12 *. Float.max pa pb
              && attachment_valid g exclude capacity inside outside a
          | _ -> false)
        (splits group))

(* One search per Prim step: a group of k users that never runs short of
   qubits costs exactly k - 1 routing searches and builds k - 1
   channels. *)
let test_one_search_per_step () =
  let g = network ~qubits:50 4 in
  let users = Graph.users g in
  Tm.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled false;
      Tm.reset ())
    (fun () ->
      for k = 2 to 6 do
        Tm.reset ();
        let group = List.filteri (fun i _ -> i < k) users in
        match
          Multi_group.prim_for_users g params ~capacity:(Capacity.of_graph g)
            ~users:group
        with
        | None -> Alcotest.fail "uncongested group must be served"
        | Some _ ->
            let value name = Tm.Counter.value (Tm.counter name) in
            check_int
              (Printf.sprintf "sssp runs, k = %d" k)
              (k - 1)
              (value "core.routing.sssp_runs");
            check_int
              (Printf.sprintf "channels built, k = %d" k)
              (k - 1)
              (value "core.routing.channels_built")
      done)

(* Fuel counts heap pops.  The per-source search pays a whole-graph SSSP
   per inside user per step; the multi-source one stops at the first
   outside user.  So the exact allowance the new search spends is too
   small for the old one. *)
let test_fuel_now_enough () =
  let g = network 3 in
  let users = Graph.users g in
  let grow_fast fuel =
    Multi_group.prim_for_users ~budget:(Budget.create ~fuel) g params
      ~capacity:(Capacity.of_graph g) ~users
  in
  let meter = Budget.create ~fuel:max_int in
  let fast =
    Multi_group.prim_for_users ~budget:meter g params
      ~capacity:(Capacity.of_graph g) ~users
  in
  check_bool "served unmetered" true (fast <> None);
  let spent = Budget.spent meter in
  check_bool "served on exactly the fuel it spends" true
    (grow_fast spent <> None);
  Alcotest.check_raises "the per-source search runs dry on it"
    (Budget.Exhausted { fuel = spent }) (fun () ->
      ignore
        (Cases.reference_prim ~budget:(Budget.create ~fuel:spent) g params
           ~capacity:(Capacity.of_graph g) ~users))

let () =
  Alcotest.run "multi_group"
    [
      ("validation", [ Alcotest.test_case "inputs" `Quick test_validation ]);
      ( "strategies",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_valid;
          Alcotest.test_case "round robin" `Quick test_round_robin_valid;
          Alcotest.test_case "single group = alg4" `Quick
            test_single_group_matches_prim;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "summary" `Quick test_summary_fields;
          Alcotest.test_case "contention" `Quick test_capacity_contention;
          Alcotest.test_case "rollback" `Quick test_failed_group_rolls_back;
        ] );
      ( "attachment",
        [
          QCheck_alcotest.to_alcotest prop_attachment_identical;
          QCheck_alcotest.to_alcotest prop_prim_identical;
          QCheck_alcotest.to_alcotest prop_attachment_rate_on_ties;
          Alcotest.test_case "one search per step" `Quick
            test_one_search_per_step;
          Alcotest.test_case "fuel now enough" `Quick test_fuel_now_enough;
        ] );
    ]
