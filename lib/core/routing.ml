module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Logprob = Qnet_util.Logprob
module Tm = Qnet_telemetry.Metrics

let c_sssp_runs = Tm.counter "core.routing.sssp_runs"
let c_channels_built = Tm.counter "core.routing.channels_built"
let c_enumerations = Tm.counter "core.routing.enumerations"

let edge_weight params (e : Graph.edge) =
  Params.link_neg_log params e.length +. Params.swap_neg_log params

type exclusion = { vertex_ok : int -> bool; edge_ok : int -> bool }

let no_exclusion = { vertex_ok = (fun _ -> true); edge_ok = (fun _ -> true) }

let path_ok g exclude path =
  let rec edges_up = function
    | [] | [ _ ] -> true
    | u :: (v :: _ as rest) -> (
        match Graph.find_edge g u v with
        | None -> false
        | Some eid -> exclude.edge_ok eid && edges_up rest)
  in
  List.for_all exclude.vertex_ok path && edges_up path

let check_user g v =
  if not (Graph.is_user g v) then
    invalid_arg "Routing: endpoint is not a quantum user"

(* With q = 0 every swap fails, so the only viable channels are direct
   user-to-user fibers; the additive-weight transform would degenerate
   to infinity - infinity there, hence the special case. *)
let direct_only g params ~exclude ~src =
  List.filter_map
    (fun (v, eid) ->
      if Graph.is_user g v && exclude.vertex_ok v && exclude.edge_ok eid then
        match Channel.make g params [ src; v ] with
        | Ok c ->
            Tm.Counter.incr c_channels_built;
            Some (v, c)
        | Error _ -> None
      else None)
    (Graph.neighbors g src)

let sssp ?budget g params ~capacity ~exclude ~src =
  Tm.Counter.incr c_sssp_runs;
  let admit v =
    exclude.vertex_ok v
    && if Graph.is_user g v then v <> src else Capacity.can_relay capacity v
  in
  let expand v = Graph.is_switch g v in
  Paths.dijkstra g ~source:src ~weight:(edge_weight params) ~admit ~expand
    ~edge_ok:exclude.edge_ok ?budget ()

let channel_of_path g params path =
  match Channel.make g params path with
  | Ok c ->
      Tm.Counter.incr c_channels_built;
      Some c
  | Error _ -> None

let channel_from_result g params result ~src ~dst =
  Option.bind
    (Paths.extract_path result ~source:src ~target:dst)
    (channel_of_path g params)

(* One early-exit search from the set [inside] to the nearest vertex
   passing [stop], under Algorithm 1's rules: enter switches only while
   they can relay, enter users only as endpoints, never relay through a
   user.  Sources are always entered and expanded, so the rule needs no
   "except the source" clause. *)
let nearest_channel ?budget g params ~capacity ~exclude ~inside ~stop =
  Tm.Counter.incr c_sssp_runs;
  let admit v =
    exclude.vertex_ok v
    && (Graph.is_user g v || Capacity.can_relay capacity v)
  in
  Option.bind
    (Paths.nearest g ~sources:inside ~stop ~weight:(edge_weight params) ~admit
       ~expand:(Graph.is_switch g) ~edge_ok:exclude.edge_ok ?budget ())
    (channel_of_path g params)

let best_channel ?(exclude = no_exclusion) ?budget g params ~capacity ~src ~dst
    =
  check_user g src;
  check_user g dst;
  if src = dst then invalid_arg "Routing.best_channel: src = dst";
  if params.Params.q = 0. then
    List.assoc_opt dst (direct_only g params ~exclude ~src)
  else
    (* A point query: stop once [dst] settles instead of settling the
       whole graph. *)
    nearest_channel ?budget g params ~capacity ~exclude ~inside:[ src ]
      ~stop:(fun v -> v = dst)

let best_attachment ?(exclude = no_exclusion) ?budget g params ~capacity
    ~inside ~outside =
  List.iter (check_user g) inside;
  if params.Params.q = 0. then begin
    (* Direct fibers only: scan each inside user's, keeping the first
       best (in inside order, then ascending user). *)
    let best = ref None in
    List.iter
      (fun src ->
        List.sort compare (direct_only g params ~exclude ~src)
        |> List.iter (fun (dst, (c : Channel.t)) ->
               if outside dst then
                 match !best with
                 | Some (b : Channel.t)
                   when Logprob.compare_desc b.rate c.rate <= 0 ->
                     ()
                 | _ -> best := Some c))
      inside;
    !best
  end
  else
    (* The best channel out of the set ends at the outside user nearest
       to it, so one search seeded with every inside user finds it. *)
    nearest_channel ?budget g params ~capacity ~exclude ~inside
      ~stop:(fun v -> Graph.is_user g v && outside v)

let best_channels_from ?(exclude = no_exclusion) ?budget g params ~capacity
    ~src =
  check_user g src;
  Tm.Counter.incr c_enumerations;
  if params.Params.q = 0. then
    List.sort compare (direct_only g params ~exclude ~src)
  else begin
    let result = sssp ?budget g params ~capacity ~exclude ~src in
    Graph.users g
    |> List.filter_map (fun u ->
           if u = src then None
           else
             match channel_from_result g params result ~src ~dst:u with
             | None -> None
             | Some c -> Some (u, c))
  end

let all_pairs_best ?exclude ?budget g params ~capacity ~users =
  let users = List.sort_uniq compare users in
  List.concat_map
    (fun src ->
      best_channels_from ?exclude ?budget g params ~capacity ~src
      |> List.filter_map (fun (dst, c) ->
             (* Keep each unordered pair once. *)
             if List.mem dst users && src < dst then Some c else None))
    users
