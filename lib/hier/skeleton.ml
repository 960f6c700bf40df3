module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Binary_heap = Qnet_graph.Binary_heap
module Routing = Qnet_core.Routing
module Capacity = Qnet_core.Capacity
module Tm = Qnet_telemetry.Metrics

let c_routes = Tm.counter "hier.skeleton_routes"
let c_seg_sssp = Tm.counter "hier.segment_sssp"
let c_seg_hits = Tm.counter "hier.segment_hits"
let c_seg_stale = Tm.counter "hier.segment_stale"

(* [edges] are the path's edge ids, recorded at compute time so
   revalidation never has to look an edge up again — [seg_ok] is then a
   walk of two short lists with O(1) predicates, cheap enough to run
   once per source per query. *)
type seg = { cost : float; path : int list; edges : int list }

(* All segments out of one gateway, aligned with its region's gateway
   row — one region-restricted SSSP fills the whole entry.  [stamp]
   marks the query that computed or last revalidated it, so one query
   never validates (or recomputes) the same source twice. *)
type entry = { segs : seg array; mutable stamp : int }

type t = {
  g : Graph.t;
  params : Qnet_core.Params.t;
  part : Partition.t;
  node_of : int array;
  vertex_of : int array;
  region_nodes : int array array;
  inter : (int * float * int) array array;
  cache : (int, entry) Hashtbl.t;
  h_rate : float;
      (* A-star heuristic slope: cost-per-km lower bound.  Any route
         spanning straight-line distance D uses at least D / l_max
         fibers (l_max = longest fiber in the network), so it costs at
         least [alpha·D + swap_neg_log·D/l_max] — i.e. [h_rate · D]
         with [h_rate = alpha + swap/l_max].  Consistent: an edge of
         length L costs [alpha·L + swap ≥ h_rate·L ≥ h_rate·euclid]. *)
  mutable query : int;
}

(* One region-restricted search from [source] on the shared [Paths]
   workspace, read back by [read] before the next search reuses it. *)
let sssp t ~source ~admit ~budget ~exclude ~read =
  Paths.settle t.g ~sources:[ source ]
    ~weight:(Routing.edge_weight t.params)
    ~admit ~expand:(Graph.is_switch t.g) ~edge_ok:exclude.Routing.edge_ok
    ?budget ~read ()

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
        (* Cross edges with a user endpoint exist only in arbitrary
           partitions; they never join two gateways, and user endpoints
           are reached by the per-query attachment searches instead. *)
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
    h_rate;
    query = 0;
  }

let partition t = t.part
let graph t = t.g
let node_count t = Array.length t.vertex_of

let inter_edge_count t =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 t.inter / 2

let seg_ok ~exclude ~capacity (s : seg) =
  s.cost < infinity
  && List.for_all exclude.Routing.vertex_ok s.path
  && List.for_all exclude.Routing.edge_ok s.edges
  && List.for_all (fun v -> Capacity.can_relay capacity v) s.path

let compute_entry t ~exclude ~budget ~capacity a =
  Tm.Counter.incr c_seg_sssp;
  let va = t.vertex_of.(a) in
  let r = t.part.Partition.region_of.(va) in
  let admit v =
    t.part.Partition.region_of.(v) = r
    && exclude.Routing.vertex_ok v
    && Graph.is_switch t.g v
    && Capacity.can_relay capacity v
  in
  let segs =
    sssp t ~source:va ~admit ~budget ~exclude ~read:(fun ws ->
        Array.map
          (fun b ->
            if b = a then { cost = 0.; path = []; edges = [] }
            else
              let vb = t.vertex_of.(b) in
              match Paths.settled_path ws vb with
              | None -> { cost = infinity; path = []; edges = [] }
              | Some (p, es) ->
                  { cost = Paths.settled_dist ws vb; path = p; edges = es })
          t.region_nodes.(r))
  in
  let e = { segs; stamp = t.query } in
  Hashtbl.replace t.cache a e;
  e

(* Optimistic reuse: relaxation trusts cached segment costs outright.
   Validation is deferred to the winning route (see [route_sets]), so a
   query pays for the handful of segments it actually uses, not for
   every entry the search settles — at 10k+ switches the per-settled-
   entry validation walk was most of the query.  A stale winner can
   only cost a retry or a fallback, never correctness: the corridor
   search downstream is exact against the live exclusion and capacity
   state.  [stamp] marks entries computed during the current query;
   those are exact and skip even the winner validation. *)
let entry t ~exclude ~budget ~capacity a =
  match Hashtbl.find_opt t.cache a with
  | Some e ->
      Tm.Counter.incr c_seg_hits;
      e
  | None -> compute_entry t ~exclude ~budget ~capacity a

let route_sets t ~exclude ~budget ~capacity ~inside ~outside =
  Tm.Counter.incr c_routes;
  t.query <- t.query + 1;
  let m = Array.length t.vertex_of in
  let region_of = t.part.Partition.region_of in
  (* Attach every endpoint to its region's gateways with one exact
     region-restricted search (same admission rule as flat routing),
     keeping the least distance per gateway: [src_d] from the nearest
     inside user, [dst_d] to the nearest outside user.  The workspace is
     shared with the lazy segment searches that run later, so each
     search is read out at once. *)
  let src_d = Array.make m infinity and dst_d = Array.make m infinity in
  let attach u ~into ~read_users =
    let r = region_of.(u) in
    let admit v =
      region_of.(v) = r
      && exclude.Routing.vertex_ok v
      &&
      if Graph.is_user t.g v then v <> u
      else Capacity.can_relay capacity v
    in
    sssp t ~source:u ~admit ~budget ~exclude ~read:(fun ws ->
        Array.iter
          (fun node ->
            let d = Paths.settled_dist ws t.vertex_of.(node) in
            if d < into.(node) then into.(node) <- d)
          t.region_nodes.(r);
        read_users ws)
  in
  (* The local edge: the best same-region inside-to-outside distance,
     read from the inside users' own attach searches.  A route that
     leaves the region and comes back passes gateways, so the skeleton
     search covers it. *)
  let local = ref infinity and local_region = ref (-1) in
  let src_regions = ref [] in
  List.iter
    (fun u ->
      let r = region_of.(u) in
      if not (List.mem r !src_regions) then src_regions := r :: !src_regions;
      attach u ~into:src_d ~read_users:(fun ws ->
          List.iter
            (fun v ->
              if region_of.(v) = r then begin
                let d = Paths.settled_dist ws v in
                if d < !local then begin
                  local := d;
                  local_region := r
                end
              end)
            outside))
    inside;
  let src_regions = List.rev !src_regions in
  List.iter (fun v -> attach v ~into:dst_d ~read_users:ignore) outside;
  let s_node = m and d_node = m + 1 in
  let admit_node b =
    let vb = t.vertex_of.(b) in
    exclude.Routing.vertex_ok vb && Capacity.can_relay capacity vb
  in
  let targets =
    List.map
      (fun v ->
        let p = Graph.vertex t.g v in
        (p.Graph.x, p.Graph.y))
      outside
  in
  (* One goal-directed A-star search over the contracted graph, virtual
     source and target attached through the arrays above; re-run after
     a stale winner forces a recompute.  The heuristic [h_rate ×
     straight-line distance to the nearest outside user] (see the
     field's definition) lower-bounds any remaining route cost, and it
     is what keeps the search — and therefore the lazy segment-cache
     fill — confined to gateways near the corridor instead of settling
     the whole skeleton. *)
  let search () =
    let dist = Array.make (m + 2) infinity in
    let prev = Array.make (m + 2) (-1) in
    let done_ = Array.make (m + 2) false in
    let heap = Binary_heap.create ~capacity:(m + 2) () in
    let h v =
      if v >= m then 0.
      else begin
        let p = Graph.vertex t.g t.vertex_of.(v) in
        let nearest =
          List.fold_left
            (fun acc (x, y) ->
              let dx = p.Graph.x -. x and dy = p.Graph.y -. y in
              Float.min acc ((dx *. dx) +. (dy *. dy)))
            infinity targets
        in
        t.h_rate *. sqrt nearest
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
            else if u = s_node then begin
              List.iter
                (fun r ->
                  Array.iter
                    (fun b -> if admit_node b then relax u d b src_d.(b))
                    t.region_nodes.(r))
                src_regions;
              relax u d d_node !local
            end
            else begin
              let ru = region_of.(t.vertex_of.(u)) in
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
              relax u d d_node dst_d.(u)
            end
          end
    done;
    (dist, prev)
  in
  (* Corridor: the distinct regions under the winning gateway route, in
     path order — or the local edge's region when that wins. *)
  let corridor_of prev =
    if prev.(d_node) = s_node then [ !local_region ]
    else begin
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
      walk prev.(d_node) []
    end
  in
  (* Winner validation: walk the chosen route and check only the
     cached segments it uses — witness path still admitted, every
     interior switch still able to relay.  Entries computed during
     this query are exact by construction and skip the check. *)
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
  (* On a no-route answer, entries from earlier queries may be hiding
     capacity that has since been freed (a segment cached as infeasible
     is never relaxed).  Dropping them once and re-searching keeps the
     skeleton's no-route answers honest without paying a revalidation
     sweep on every query. *)
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
                Tm.Counter.incr c_seg_stale;
                ignore (compute_entry t ~exclude ~budget ~capacity a))
              dead;
            attempt ~refreshed (retries - 1)
          end
  in
  attempt ~refreshed:false 3

(* --- checkpoint state ---------------------------------------------- *)

(* The segment cache is optimistically reused, so a restored run must
   resume with the *same* cache contents — a cold cache recomputes
   segments under the live residual state and can pick a different
   corridor than the uninterrupted run did.  The export is therefore
   exact: every cached entry with its stamp, plus the query counter the
   stamps are compared against.  Entries are emitted sorted by node so
   the rendering is independent of hash-table iteration order. *)

module Sx = Qnet_util.Sexp

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

let import t doc =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* query, entries =
    match doc with
    | Sx.List
        [
          Sx.Atom "skeleton";
          Sx.List [ Sx.Atom "query"; q ];
          Sx.List (Sx.Atom "entries" :: entries);
        ] ->
        let* q = Sx.to_int q in
        Ok (q, entries)
    | _ -> err "malformed skeleton state"
  in
  let seg_of = function
    | Sx.List [ cost; Sx.List path; Sx.List edges ] ->
        let* cost = Sx.to_float cost in
        let rec ints acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest ->
              let* n = Sx.to_int x in
              ints (n :: acc) rest
        in
        let* path = ints [] path in
        let* edges = ints [] edges in
        Ok { cost; path; edges }
    | _ -> err "malformed skeleton segment"
  in
  let m = Array.length t.vertex_of in
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | Sx.List [ node; stamp; Sx.List segs ] :: rest ->
        let* node = Sx.to_int node in
        let* stamp = Sx.to_int stamp in
        if node < 0 || node >= m then
          err "skeleton state names gateway %d, not in this network" node
        else begin
          let row =
            t.region_nodes.(t.part.Partition.region_of.(t.vertex_of.(node)))
          in
          if List.length segs <> Array.length row then
            err "skeleton entry for gateway %d has %d segments, expected %d"
              node (List.length segs) (Array.length row)
          else
            let rec segs_of acc = function
              | [] -> Ok (Array.of_list (List.rev acc))
              | s :: rest ->
                  let* s = seg_of s in
                  segs_of (s :: acc) rest
            in
            let* segs = segs_of [] segs in
            load ((node, { segs; stamp }) :: acc) rest
        end
    | _ :: _ -> err "malformed skeleton entry"
  in
  let* entries = load [] entries in
  Hashtbl.reset t.cache;
  List.iter (fun (node, e) -> Hashtbl.replace t.cache node e) entries;
  t.query <- query;
  Ok ()

let invalidate_region t r =
  if r >= 0 && r < Array.length t.region_nodes then
    Array.iter (fun node -> Hashtbl.remove t.cache node) t.region_nodes.(r)

let invalidate_all t = Hashtbl.reset t.cache
