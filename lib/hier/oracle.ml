module Graph = Qnet_graph.Graph
module Routing = Qnet_core.Routing
module Multi_group = Qnet_core.Multi_group
module Params = Qnet_core.Params
module Tm = Qnet_telemetry.Metrics

let c_queries = Tm.counter "hier.queries"
let c_local = Tm.counter "hier.local"
let c_corridor_hits = Tm.counter "hier.corridor_hits"
let c_fallbacks = Tm.counter "hier.fallbacks"

type t = {
  g : Graph.t;
  params : Params.t;
  part : Partition.t;
  skeleton : Skeleton.t;
  in_corridor : bool array;  (* region -> member of the current corridor *)
}

let create g params part =
  {
    g;
    params;
    part;
    skeleton = Skeleton.create g params part;
    in_corridor = Array.make part.Partition.count false;
  }

let graph t = t.g
let params t = t.params
let partition t = t.part
let skeleton t = t.skeleton

(* Exact search restricted to the corridor regions: Algorithm 1's
   search with the regions outside the corridor excluded.  Identical
   weights, so inside the corridor the result is the true optimum. *)
let within_corridor t ~exclude corridor search =
  List.iter (fun r -> t.in_corridor.(r) <- true) corridor;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun r -> t.in_corridor.(r) <- false) corridor)
    (fun () ->
      let region_of = t.part.Partition.region_of in
      search
        {
          exclude with
          Routing.vertex_ok =
            (fun v ->
              t.in_corridor.(region_of.(v)) && exclude.Routing.vertex_ok v);
        })

(* Corridor, then the exact search inside it, then the flat search when
   either finds nothing. *)
let through_corridor t corridor ~exclude ~search =
  let fallback () =
    Tm.Counter.incr c_fallbacks;
    search exclude
  in
  match corridor with
  | None -> fallback ()
  | Some regions -> (
      if List.compare_length_with regions 1 = 0 then
        Tm.Counter.incr c_local;
      match within_corridor t ~exclude regions search with
      | Some c ->
          Tm.Counter.incr c_corridor_hits;
          Some c
      | None -> fallback ())

let best_channel ?(exclude = Routing.no_exclusion) ?budget t ~capacity ~src
    ~dst =
  if not (Graph.is_user t.g src && Graph.is_user t.g dst) then
    invalid_arg "Oracle.best_channel: endpoint is not a quantum user";
  if src = dst then invalid_arg "Oracle.best_channel: src = dst";
  let search exclude =
    Routing.best_channel ~exclude ?budget t.g t.params ~capacity ~src ~dst
  in
  if t.params.Params.q = 0. then
    (* Only direct fibers work: nothing to contract. *)
    search exclude
  else begin
    Tm.Counter.incr c_queries;
    let region_of = t.part.Partition.region_of in
    let corridor =
      if region_of.(src) = region_of.(dst) then Some [ region_of.(src) ]
      else
        Skeleton.route_sets t.skeleton ~exclude ~budget ~capacity
          ~inside:[ src ] ~outside:[ dst ]
    in
    through_corridor t corridor ~exclude ~search
  end

let best_attachment ?(exclude = Routing.no_exclusion) ?budget t ~capacity
    ~inside ~outside =
  if not (List.for_all (Graph.is_user t.g) inside) then
    invalid_arg "Oracle.best_attachment: inside vertex is not a quantum user";
  let search exclude =
    Routing.best_attachment ~exclude ?budget t.g t.params ~capacity ~inside
      ~outside
  in
  match List.filter outside (Graph.users t.g) with
  | [] -> None
  | _ when t.params.Params.q = 0. -> search exclude
  | outside_users ->
      Tm.Counter.incr c_queries;
      let corridor =
        Skeleton.route_sets t.skeleton ~exclude ~budget ~capacity ~inside
          ~outside:outside_users
      in
      through_corridor t corridor ~exclude ~search

let route_users ?exclude ?budget t ~capacity ~users =
  Multi_group.prim_for_users ?exclude ?budget
    ~oracle:(fun ?exclude ?budget _g _params ~capacity ~inside ~outside ->
      best_attachment ?exclude ?budget t ~capacity ~inside ~outside)
    t.g t.params ~capacity ~users

let invalidate_switch t v =
  Skeleton.invalidate_region t.skeleton t.part.Partition.region_of.(v)

let invalidate_link t eid =
  let e = Graph.edge t.g eid in
  let ra = t.part.Partition.region_of.(e.Graph.a)
  and rb = t.part.Partition.region_of.(e.Graph.b) in
  Skeleton.invalidate_region t.skeleton ra;
  if rb <> ra then Skeleton.invalidate_region t.skeleton rb
