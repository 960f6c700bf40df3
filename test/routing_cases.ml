(* Random routing instances and the slow per-source reference shared by
   the differential tests of Routing and Multi_group.

   An instance is a Waxman network with random residual capacity (each
   switch keeps 0..qubits free qubits, so some cannot relay), a random
   exclusion (failed switches and fibers) and a random group of 2-6
   users.  With [integer_lengths] every fiber is 100, 200 or 300 km long,
   which makes exact rate ties common (about one attachment in sixteen
   then has several equally good channels that the two searches pick
   differently). *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Logprob = Qnet_util.Logprob
open Qnet_core

type case = {
  seed : int;
  switches : int;
  qubits : int;
  group_size : int;
  integer_lengths : bool;
}

let gen ~integer_lengths =
  QCheck.Gen.(
    let* seed = int_range 1 100_000 in
    let* switches = int_range 6 40 in
    let* qubits = int_range 2 6 in
    let* group_size = int_range 2 6 in
    return { seed; switches; qubits; group_size; integer_lengths })

let print c =
  Printf.sprintf "{seed=%d; switches=%d; qubits=%d; group=%d; int=%b}" c.seed
    c.switches c.qubits c.group_size c.integer_lengths

let arb ~integer_lengths = QCheck.make ~print (gen ~integer_lengths)

let integer_fibers g =
  let b = Graph.Builder.create () in
  Graph.iter_vertices g (fun v ->
      ignore
        (Graph.Builder.add_vertex b ~kind:v.Graph.kind ~qubits:v.Graph.qubits
           ~x:v.Graph.x ~y:v.Graph.y));
  Graph.iter_edges g (fun e ->
      ignore
        (Graph.Builder.add_edge b e.Graph.a e.Graph.b
           (100. *. Float.of_int (1 + (int_of_float e.Graph.length mod 3)))));
  Graph.Builder.freeze b

type instance = {
  g : Graph.t;
  exclude : Routing.exclusion;
  group : int list;
}

let instance c =
  let rng = Prng.create c.seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:8 ~n_switches:c.switches
      ~qubits_per_switch:c.qubits ()
  in
  let g = Qnet_topology.Waxman.generate rng spec in
  let g = if c.integer_lengths then integer_fibers g else g in
  let g =
    Graph.with_qubits g (fun v ->
        if v.Graph.kind = Graph.Switch then Prng.int rng (c.qubits + 1)
        else v.Graph.qubits)
  in
  let failed_switch =
    Array.init (Graph.vertex_count g) (fun v ->
        Graph.is_switch g v && Prng.bernoulli rng 0.1)
  in
  let failed_edge =
    Array.init (Graph.edge_count g) (fun _ -> Prng.bernoulli rng 0.1)
  in
  let exclude =
    {
      Routing.vertex_ok = (fun v -> not failed_switch.(v));
      edge_ok = (fun e -> not failed_edge.(e));
    }
  in
  let users = Array.of_list (Graph.users g) in
  Prng.shuffle_in_place rng users;
  let group = Array.to_list (Array.sub users 0 c.group_size) in
  { g; exclude; group }

(* The first channel of best rate wins, as in the per-source scan. *)
let better best (c : Channel.t) =
  match best with
  | Some (b : Channel.t) when Logprob.compare_desc b.rate c.rate <= 0 -> best
  | _ -> Some c

(* The per-source attachment: one whole-graph search from every inside
   user, keeping the best channel to an outside user. *)
let reference_attachment ?exclude ?budget g params ~capacity ~inside ~outside
    =
  List.fold_left
    (fun best src ->
      List.fold_left
        (fun best (dst, c) -> if outside dst then better best c else best)
        best
        (Routing.best_channels_from ?exclude ?budget g params ~capacity ~src))
    None inside

(* Algorithm 4 grown with [reference_attachment]. *)
let reference_prim ?exclude ?budget g params ~capacity ~users =
  match users with
  | [] -> invalid_arg "reference_prim"
  | start :: rest ->
      let rec grow inside outside acc =
        if outside = [] then Some (List.rev acc)
        else
          match
            reference_attachment ?exclude ?budget g params ~capacity ~inside
              ~outside:(fun v -> List.mem v outside)
          with
          | None -> None
          | Some (c : Channel.t) ->
              Capacity.consume_channel capacity c.path;
              let fresh = if List.mem c.src inside then c.dst else c.src in
              grow (fresh :: inside)
                (List.filter (fun u -> u <> fresh) outside)
                (c :: acc)
      in
      grow [ start ] rest []

let paths = Option.map (List.map (fun (c : Channel.t) -> c.path))
