module Prng = Qnet_util.Prng

type params = { alpha_w : float }

let default_params = { alpha_w = 0.15 }

(* Classic Waxman: accept each pair independently with probability
   beta * exp(-d / (alpha_w * L)).  Edge count is a random variable, so
   the paper's fixed-average-degree evaluation uses [generate] instead;
   this form exists for fidelity to the original model (and tests). *)
let generate_classic ?(params = default_params) ~beta rng spec =
  Spec.validate spec;
  if not (params.alpha_w > 0.) then
    invalid_arg "Waxman.generate_classic: alpha_w must be positive";
  if not (beta > 0. && beta <= 1.) then
    invalid_arg "Waxman.generate_classic: beta outside (0, 1]";
  let n = Spec.vertex_count spec in
  let points = Layout.random_points rng ~area:spec.Spec.area n in
  let roles = Assemble.assign_roles rng spec in
  let scale = params.alpha_w *. Layout.max_distance ~area:spec.Spec.area in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Layout.distance points.(u) points.(v) in
      if Prng.bernoulli rng (beta *. exp (-.d /. scale)) then
        edges := (u, v) :: !edges
    done
  done;
  Assemble.build spec ~points ~roles ~edges:!edges

(* The [m] best of a stream of keyed pairs, in the order a stable
   descending sort of the whole stream would list them when it was
   built by prepending (the reference form): larger key first, and on
   equal keys the pair offered later first.  So pair i beats pair j
   when its key is larger, or equal with i > j — a strict total order,
   since offer indices are distinct.  A bounded min-heap on that order
   keeps the current best [m] with the worst at the root, in three
   unboxed arrays: O(m) memory however many pairs are offered. *)
type top = {
  keys : float array;
  idx : int array;  (* offer index, the tie-break *)
  pairs : int array;  (* u * n + v *)
  mutable size : int;
  mutable offered : int;
}

let top_create m =
  let m = max 0 m in
  {
    keys = Array.make m 0.;
    idx = Array.make m 0;
    pairs = Array.make m 0;
    size = 0;
    offered = 0;
  }

(* Slot a ranks below slot b (a is the worse pair). *)
let worse t a b =
  t.keys.(a) < t.keys.(b) || (t.keys.(a) = t.keys.(b) && t.idx.(a) < t.idx.(b))

let swap t a b =
  let k = t.keys.(a) and i = t.idx.(a) and p = t.pairs.(a) in
  t.keys.(a) <- t.keys.(b);
  t.idx.(a) <- t.idx.(b);
  t.pairs.(a) <- t.pairs.(b);
  t.keys.(b) <- k;
  t.idx.(b) <- i;
  t.pairs.(b) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if worse t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let w = ref i in
  if l < t.size && worse t l !w then w := l;
  if r < t.size && worse t r !w then w := r;
  if !w <> i then begin
    swap t i !w;
    sift_down t !w
  end

let top_offer t key pair =
  let i = t.offered in
  t.offered <- i + 1;
  let m = Array.length t.keys in
  if t.size < m then begin
    let s = t.size in
    t.keys.(s) <- key;
    t.idx.(s) <- i;
    t.pairs.(s) <- pair;
    t.size <- s + 1;
    sift_up t s
  end
  else if m > 0 && (key > t.keys.(0) || (key = t.keys.(0) && i > t.idx.(0)))
  then begin
    (* every kept pair has a smaller offer index, so on a tied key the
       newcomer outranks the root *)
    t.keys.(0) <- key;
    t.idx.(0) <- i;
    t.pairs.(0) <- pair;
    sift_down t 0
  end

(* The kept pairs, best first. *)
let top_sorted t =
  let order = Array.init t.size Fun.id in
  Array.sort
    (fun a b -> if worse t a b then 1 else if worse t b a then -1 else 0)
    order;
  Array.map (fun s -> t.pairs.(s)) order

let top_pairs ~m keys =
  let t = top_create m in
  Array.iteri (fun i k -> top_offer t k i) keys;
  top_sorted t

let generate ?(params = default_params) rng spec =
  Spec.validate spec;
  if not (params.alpha_w > 0.) then
    invalid_arg "Waxman.generate: alpha_w must be positive";
  let n = Spec.vertex_count spec in
  let points = Layout.random_points rng ~area:spec.Spec.area n in
  let roles = Assemble.assign_roles rng spec in
  let scale = params.alpha_w *. Layout.max_distance ~area:spec.Spec.area in
  (* Efraimidis–Spirakis: each pair gets key ln(U)/w; the m largest keys
     are a weighted sample without replacement.  Only the best m are
     ever held, so memory is O(n + m), not O(n²). *)
  let budget = Spec.target_edges spec in
  let top = top_create (min budget (n * (n - 1) / 2)) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Layout.distance points.(u) points.(v) in
      let w = exp (-.d /. scale) in
      let u01 = Float.max 1e-300 (Prng.float rng 1.) in
      top_offer top (log u01 /. w) ((u * n) + v)
    done
  done;
  let edges =
    Array.fold_right (fun p acc -> (p / n, p mod n) :: acc) (top_sorted top) []
  in
  Assemble.build spec ~points ~roles ~edges
