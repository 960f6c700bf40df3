type dijkstra_result = { dist : float array; prev : int array }

(* Work counters for the shortest-path hot path (no-ops unless
   telemetry is enabled).  Every solver funnels through here, so these
   are the substrate-level cost measure of a routing run. *)
module Tm = Qnet_telemetry.Metrics

let c_runs = Tm.counter "graph.dijkstra.runs"
let c_pushes = Tm.counter "graph.dijkstra.heap_pushes"
let c_pops = Tm.counter "graph.dijkstra.heap_pops"
let c_relaxations = Tm.counter "graph.dijkstra.edge_relaxations"
let c_improvements = Tm.counter "graph.dijkstra.dist_improvements"

(* Each domain reuses one search workspace across its runs (the
   routing layer performs thousands per solve — see
   [core.routing.sssp_runs]).  The heap serves every search.  The
   generation-stamped arrays serve {!nearest} and {!settle}: a slot is
   meaningful only while its stamp equals the current generation, so
   starting a run is a counter bump, not O(n) allocations — a
   region-restricted search costs what it settles, not the size of the
   graph.  The arrays grow to the largest graph seen.  The take/put-back
   dance keeps a nested run, should a [weight]/[admit]/[stop]/[read]
   callback ever trigger one, on a private freshly-allocated
   workspace. *)
type scratch = {
  heap : int Binary_heap.t;
  mutable dist : float array;
  mutable prev : int array;
  mutable prev_edge : int array;  (* edge into [prev] *)
  mutable reached : int array;  (* dist/prev valid iff = gen *)
  mutable settled : int array;  (* settled iff = gen *)
  mutable gen : int;
}

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_scratch n f =
  let cell = Domain.DLS.get scratch_key in
  let sc =
    match !cell with
    | Some sc ->
        cell := None;
        Binary_heap.reset sc.heap;
        sc
    | None ->
        {
          heap = Binary_heap.create ~capacity:(n + 1) ();
          dist = [||];
          prev = [||];
          prev_edge = [||];
          reached = [||];
          settled = [||];
          gen = 0;
        }
  in
  Fun.protect ~finally:(fun () -> cell := Some sc) (fun () -> f sc)

let dijkstra g ~source ~weight ?(admit = fun _ -> true)
    ?(expand = fun _ -> true) ?(edge_ok = fun _ -> true) ?target ?budget () =
  let n = Graph.vertex_count g in
  if source < 0 || source >= n then invalid_arg "Paths.dijkstra: bad source";
  (match target with
  | Some t when t < 0 || t >= n -> invalid_arg "Paths.dijkstra: bad target"
  | _ -> ());
  (* Bind the fuel charge once so the unbudgeted hot path stays a
     single closure call away from free. *)
  let charge =
    match budget with
    | None -> Fun.id
    | Some b -> fun () -> Qnet_overload.Budget.tick b
  in
  Tm.Counter.incr c_runs;
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let done_ = Array.make n false in
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  let target = match target with Some t -> t | None -> -1 in
  with_scratch n (fun { heap; _ } ->
      dist.(source) <- 0.;
      Binary_heap.push heap 0. source;
      Tm.Counter.incr c_pushes;
      let running = ref true in
      while !running do
        match Binary_heap.pop_min heap with
        | None -> running := false
        | Some (d, u) ->
            charge ();
            Tm.Counter.incr c_pops;
            if not done_.(u) && d <= dist.(u) then begin
              done_.(u) <- true;
              (* The popped distance is final, so the target's settling
                 ends the s-t query — no need to drain the frontier. *)
              if u = target then running := false
              else if u = source || expand u then
                for k = off.(u) to off.(u + 1) - 1 do
                  let v = pairs.(2 * k) in
                  Tm.Counter.incr c_relaxations;
                  if
                    (not done_.(v))
                    && (v = source || admit v)
                    && edge_ok pairs.((2 * k) + 1)
                  then begin
                    let e = Graph.edge g pairs.((2 * k) + 1) in
                    let w = weight e in
                    if w < 0. then
                      invalid_arg "Paths.dijkstra: negative edge weight";
                    let cand = d +. w in
                    if cand < dist.(v) then begin
                      dist.(v) <- cand;
                      prev.(v) <- u;
                      Tm.Counter.incr c_improvements;
                      Binary_heap.push heap cand v;
                      Tm.Counter.incr c_pushes
                    end
                  end
                done
            end
      done);
  { dist; prev }

(* The stamped arrays grow to [n] on first use by a larger graph; the
   fresh stamps (-1) are below every generation, so nothing stale
   survives the swap. *)
let ensure_size sc n =
  if Array.length sc.reached < n then begin
    sc.dist <- Array.make n infinity;
    sc.prev <- Array.make n (-1);
    sc.prev_edge <- Array.make n (-1);
    sc.reached <- Array.make n (-1);
    sc.settled <- Array.make n (-1)
  end

(* The multi-source search behind {!nearest} and {!settle}: settle from
   [sources] until a vertex passing [stop] settles (its id goes to [k])
   or the frontier empties ([k] gets -1).  [k] reads the workspace
   before it is handed back.  [counted] adds the run to the
   [graph.dijkstra.*] counters. *)
let search_from ~who g ~sources ~stop ~weight ~admit ~expand ~edge_ok ~budget
    ~counted k =
  let n = Graph.vertex_count g in
  List.iter
    (fun s -> if s < 0 || s >= n then invalid_arg (who ^ ": bad source"))
    sources;
  let charge =
    match budget with
    | None -> Fun.id
    | Some b -> fun () -> Qnet_overload.Budget.tick b
  in
  if counted then Tm.Counter.incr c_runs;
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  with_scratch n (fun sc ->
      ensure_size sc n;
      sc.gen <- sc.gen + 1;
      let gen = sc.gen and heap = sc.heap in
      let dist = sc.dist and prev = sc.prev and prev_edge = sc.prev_edge in
      let reached = sc.reached and settled = sc.settled in
      (* Work is tallied locally and flushed once per search — the
         registry lookup per increment would cost more than the
         relaxation it counts. *)
      let pushes = ref 0 and pops = ref 0 in
      let relaxations = ref 0 and improvements = ref 0 in
      let flush () =
        if counted then begin
          Tm.Counter.add c_pushes !pushes;
          Tm.Counter.add c_pops !pops;
          Tm.Counter.add c_relaxations !relaxations;
          Tm.Counter.add c_improvements !improvements
        end
      in
      (* A source is a reached vertex without predecessor: weights are
         non-negative, so its 0 is never improved. *)
      let is_source v = reached.(v) = gen && prev.(v) < 0 in
      List.iter
        (fun s ->
          dist.(s) <- 0.;
          prev.(s) <- -1;
          reached.(s) <- gen;
          Binary_heap.push heap 0. s;
          incr pushes)
        sources;
      let found = ref (-1) in
      let search () =
        while !found < 0 && not (Binary_heap.is_empty heap) do
          let d = Binary_heap.min_key heap and u = Binary_heap.min_value heap in
          Binary_heap.drop_min heap;
          charge ();
          incr pops;
          if settled.(u) <> gen && d <= dist.(u) then begin
            settled.(u) <- gen;
            if stop u then found := u
            else if is_source u || expand u then
              for k = off.(u) to off.(u + 1) - 1 do
                let v = pairs.(2 * k) in
                incr relaxations;
                if
                  settled.(v) <> gen
                  && (is_source v || admit v)
                  && edge_ok pairs.((2 * k) + 1)
                then begin
                  let eid = pairs.((2 * k) + 1) in
                  let w = weight (Graph.edge g eid) in
                  if w < 0. then invalid_arg (who ^ ": negative edge weight");
                  let cand = d +. w in
                  if cand < (if reached.(v) = gen then dist.(v) else infinity)
                  then begin
                    dist.(v) <- cand;
                    prev.(v) <- u;
                    prev_edge.(v) <- eid;
                    reached.(v) <- gen;
                    incr improvements;
                    Binary_heap.push heap cand v;
                    incr pushes
                  end
                end
              done
          end
        done
      in
      (match search () with
      | () -> flush ()
      | exception e ->
          flush ();
          raise e);
      k sc !found)

let nearest g ~sources ~stop ~weight ?(admit = fun _ -> true)
    ?(expand = fun _ -> true) ?(edge_ok = fun _ -> true) ?budget () =
  search_from ~who:"Paths.nearest" g ~sources ~stop ~weight ~admit ~expand
    ~edge_ok ~budget ~counted:true (fun sc found ->
      if found < 0 then None
      else begin
        let rec walk v acc =
          if sc.prev.(v) < 0 then v :: acc else walk sc.prev.(v) (v :: acc)
        in
        Some (walk found [])
      end)

type settled = scratch

let settle g ~sources ~weight ?(admit = fun _ -> true)
    ?(expand = fun _ -> true) ?(edge_ok = fun _ -> true) ?budget ~read () =
  search_from ~who:"Paths.settle" g ~sources
    ~stop:(fun _ -> false)
    ~weight ~admit ~expand ~edge_ok ~budget ~counted:false (fun sc _ ->
      read sc)

let settled_dist sc v =
  if sc.reached.(v) = sc.gen then sc.dist.(v) else infinity

let settled_path sc v =
  if sc.reached.(v) <> sc.gen then None
  else begin
    let rec walk v vs es =
      let p = sc.prev.(v) in
      if p < 0 then Some (v :: vs, es)
      else walk p (v :: vs) (sc.prev_edge.(v) :: es)
    in
    walk v [] []
  end

let extract_path ({ dist; prev } : dijkstra_result) ~source ~target =
  if dist.(target) = infinity then None
  else begin
    let rec walk v acc =
      if v = source then v :: acc else walk prev.(v) (v :: acc)
    in
    Some (walk target [])
  end

let shortest_path g ~source ~target ~weight ?admit ?expand ?edge_ok ?budget () =
  let result =
    dijkstra g ~source ~weight ?admit ?expand ?edge_ok ~target ?budget ()
  in
  match extract_path result ~source ~target with
  | None -> None
  | Some path -> Some (path, result.dist.(target))

let bfs_hops g ~source =
  let n = Graph.vertex_count g in
  if source < 0 || source >= n then invalid_arg "Paths.bfs_hops: bad source";
  let hops = Array.make n (-1) in
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  let q = Queue.create () in
  hops.(source) <- 0;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for k = off.(u) to off.(u + 1) - 1 do
      let v = pairs.(2 * k) in
      if hops.(v) < 0 then begin
        hops.(v) <- hops.(u) + 1;
        Queue.add v q
      end
    done
  done;
  hops

let bfs_order g ~source =
  let n = Graph.vertex_count g in
  if source < 0 || source >= n then invalid_arg "Paths.bfs_order: bad source";
  let seen = Array.make n false in
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  let q = Queue.create () in
  let order = ref [] in
  seen.(source) <- true;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    for k = off.(u) to off.(u + 1) - 1 do
      let v = pairs.(2 * k) in
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v q
      end
    done
  done;
  List.rev !order

let connected_components g =
  let n = Graph.vertex_count g in
  let uf = Union_find.create n in
  Graph.iter_edges g (fun e -> ignore (Union_find.union uf e.a e.b));
  Union_find.groups uf

let is_connected g =
  let n = Graph.vertex_count g in
  n <= 1 || List.length (connected_components g) = 1

let users_connected g =
  match Graph.users g with
  | [] | [ _ ] -> true
  | first :: rest ->
      let hops = bfs_hops g ~source:first in
      List.for_all (fun u -> hops.(u) >= 0) rest

let path_is_valid g path =
  let rec distinct seen = function
    | [] -> true
    | v :: rest ->
        if List.mem v seen then false else distinct (v :: seen) rest
  in
  let rec edges_ok = function
    | [] | [ _ ] -> true
    | u :: (v :: _ as rest) -> Graph.has_edge g u v && edges_ok rest
  in
  match path with
  | [] -> false
  | _ -> distinct [] path && edges_ok path

let fold_path_edges g path ~init ~f =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> begin
        match Graph.find_edge g u v with
        | None -> invalid_arg "Paths: consecutive vertices not adjacent"
        | Some eid -> go (f acc (Graph.edge g eid)) rest
      end
  in
  go init path

let path_length g path =
  fold_path_edges g path ~init:0. ~f:(fun acc e -> acc +. e.length)

let path_edges g path =
  List.rev (fold_path_edges g path ~init:[] ~f:(fun acc e -> e.eid :: acc))
