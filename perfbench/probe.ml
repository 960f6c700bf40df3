(* Measurement primitives for timing the engine's layers from outside:
   a monotonic clock, a domain-safe store of timed calls, the union of
   child intervals (a span's self time is its length minus that), and
   spans written out as JSON lines. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Timed calls of one layer entry point, safe to record from several
   domains at once: each domain appends to its own buffer, registered
   under a lock the first time it records after a [reset]. *)
module Calls = struct
  type buf = {
    mutable gen : int;
    mutable start : float array;
    mutable stop : float array;
    mutable n : int;
    mutable ok : int;
  }

  type t = {
    lock : Mutex.t;
    mutable bufs : buf list;
    gen : int Atomic.t;
    key : buf Domain.DLS.key;
  }

  let create () =
    {
      lock = Mutex.create ();
      bufs = [];
      gen = Atomic.make 0;
      key =
        Domain.DLS.new_key (fun () ->
            { gen = -1; start = [||]; stop = [||]; n = 0; ok = 0 });
    }

  (* Call only while no domain is recording. *)
  let reset t =
    Mutex.protect t.lock (fun () ->
        Atomic.incr t.gen;
        t.bufs <- [])

  let local t =
    let b = Domain.DLS.get t.key in
    let g = Atomic.get t.gen in
    if b.gen <> g then begin
      b.gen <- g;
      b.n <- 0;
      b.ok <- 0;
      Mutex.protect t.lock (fun () -> t.bufs <- b :: t.bufs)
    end;
    b

  let record t ~ok t0 t1 =
    let b = local t in
    if b.n = Array.length b.start then begin
      let cap = max 1024 (2 * b.n) in
      let grow a = Array.append a (Array.make (cap - b.n) 0.) in
      b.start <- grow b.start;
      b.stop <- grow b.stop
    end;
    b.start.(b.n) <- t0;
    b.stop.(b.n) <- t1;
    b.n <- b.n + 1;
    if ok then b.ok <- b.ok + 1

  (* Every interval recorded since the last [reset], in start order,
     and how many of the calls succeeded. *)
  let collect t =
    Mutex.protect t.lock (fun () ->
        let iv =
          List.concat_map
            (fun b -> List.init b.n (fun i -> (b.start.(i), b.stop.(i))))
            t.bufs
          |> Array.of_list
        in
        Array.sort compare iv;
        (iv, List.fold_left (fun acc b -> acc + b.ok) 0 t.bufs))
end

let total iv = Array.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. iv

(* Length of the union of sorted intervals: children that ran at once
   on two domains cover their shared stretch only once. *)
let covered iv =
  let acc = ref 0. and cur = ref None in
  Array.iter
    (fun (a, b) ->
      match !cur with
      | Some (ca, cb) when a <= cb -> cur := Some (ca, Float.max cb b)
      | Some (ca, cb) ->
          acc := !acc +. (cb -. ca);
          cur := Some (a, b)
      | None -> cur := Some (a, b))
    iv;
  match !cur with Some (ca, cb) -> !acc +. (cb -. ca) | None -> !acc

(* Nearest-rank percentile of an unsorted sample; [0.] when empty. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))
  end

let median xs = percentile xs 0.5

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    start : float;
    stop : float;
  }

  let all : span list ref = ref []
  let next = ref 0

  let add ~name ~parent start stop =
    let id = !next in
    incr next;
    all := { id; name; parent; start; stop } :: !all;
    id

  (* [with_span ~name ~parent f] runs [f id] inside a new span. *)
  let with_span ~name ~parent f =
    let id = !next in
    incr next;
    let t0 = now () in
    let r = f id in
    all := { id; name; parent; start = t0; stop = now () } :: !all;
    r

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \
           \"end_s\": %.9f}\n"
          s.id s.name s.parent s.start s.stop)
      (List.rev !all);
    close_out oc
end
