(* Pre-scheduled sources merged with an array-backed binary min-heap on
   (time, seq) keys.  seq is a monotonically increasing insertion
   counter, so equal-time events pop in push order.  Source i's item at
   index k carries seq [base.(i) + k], and every source seq is below the
   first pushed one, so the merge is the order pushing every scheduled
   item up front would have given. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a source = {
  length : int;
  order : int array;
      (* pop position -> index; [||] when the items are already in
         time order, which is the common case and needs no permutation *)
  time_of : int -> float;  (* by index *)
  get : int -> 'a;  (* by index *)
}

let source ~time ~wrap items =
  let n = Array.length items in
  let sorted = ref true in
  for k = 0 to n - 1 do
    let t = time items.(k) in
    if Float.is_nan t then invalid_arg "Event_queue.source: NaN timestamp";
    if k > 0 && t < time items.(k - 1) then sorted := false
  done;
  let order =
    if !sorted then [||]
    else begin
      let o = Array.init n Fun.id in
      Array.stable_sort
        (fun i j -> Float.compare (time items.(i)) (time items.(j)))
        o;
      o
    end
  in
  {
    length = n;
    order;
    time_of = (fun k -> time items.(k));
    get = (fun k -> wrap items.(k));
  }

let index_at s p = if Array.length s.order = 0 then p else s.order.(p)

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  hint : int;
  sources : 'a source array;
  base : int array;  (* seq of each source's index 0 *)
  pos : int array;  (* each source's next pop position *)
  scheduled : int;  (* total source items = the first pushed seq *)
}

(* The backing array is allocated on first push (an empty array needs
   no dummy element); [capacity] sizes that first allocation. *)
let create ?(capacity = 16) ?(sources = [||]) () =
  let base = Array.make (Array.length sources) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i s ->
      base.(i) <- !total;
      total := !total + s.length)
    sources;
  {
    data = [||];
    size = 0;
    next_seq = !total;
    hint = max capacity 1;
    sources;
    base;
    pos = Array.make (Array.length sources) 0;
    scheduled = !total;
  }

let remaining q =
  let n = ref 0 in
  Array.iteri (fun i s -> n := !n + s.length - q.pos.(i)) q.sources;
  !n

let length q = q.size + remaining q
let is_empty q = length q = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let ensure_capacity q entry =
  if q.size = Array.length q.data then begin
    let cap = max q.hint (2 * Array.length q.data) in
    let data = Array.make cap entry in
    Array.blit q.data 0 data 0 q.size;
    q.data <- data
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q.data.(i) q.data.(parent) then begin
      let tmp = q.data.(i) in
      q.data.(i) <- q.data.(parent);
      q.data.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && lt q.data.(l) q.data.(!smallest) then smallest := l;
  if r < q.size && lt q.data.(r) q.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(!smallest);
    q.data.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN timestamp";
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  ensure_capacity q entry;
  q.data.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

(* Where the next event comes from: a source index, [Array.length
   q.sources] for the heap, or -1 when everything is drained. *)
let head q =
  let best = ref (-1) and bt = ref 0. and bs = ref 0 in
  for i = 0 to Array.length q.sources - 1 do
    let s = q.sources.(i) and p = q.pos.(i) in
    if p < s.length then begin
      let k = index_at s p in
      let t = s.time_of k and seq = q.base.(i) + k in
      if !best < 0 || t < !bt || (t = !bt && seq < !bs) then begin
        best := i;
        bt := t;
        bs := seq
      end
    end
  done;
  if q.size > 0 then begin
    let e = q.data.(0) in
    if !best < 0 || e.time < !bt || (e.time = !bt && e.seq < !bs) then
      best := Array.length q.sources
  end;
  !best

let key_of q h =
  if h = Array.length q.sources then (q.data.(0).time, q.data.(0).seq)
  else
    let s = q.sources.(h) in
    let k = index_at s q.pos.(h) in
    (s.time_of k, q.base.(h) + k)

(* Remove the head, which [head] located at [h]. *)
let take q h =
  if h = Array.length q.sources then begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q 0
    end;
    (top.time, top.seq, top.payload)
  end
  else begin
    let s = q.sources.(h) in
    let k = index_at s q.pos.(h) in
    q.pos.(h) <- q.pos.(h) + 1;
    (s.time_of k, q.base.(h) + k, s.get k)
  end

let pop q =
  match head q with
  | -1 -> None
  | h ->
      let t, _, payload = take q h in
      Some (t, payload)

let peek_key q = match head q with -1 -> None | h -> Some (key_of q h)
let peek_time q = Option.map fst (peek_key q)

(* Pop every event with [time <= upto], in (time, seq) order — the exact
   sequence a pop loop would have produced, packaged as one batch (with
   each event's insertion seq) so the engine can speculate over it and
   still commit in the serial total order. *)
let drain_until q ~upto =
  if Float.is_nan upto then invalid_arg "Event_queue.drain_until: NaN bound";
  let rec collect acc =
    match head q with
    | -1 -> List.rev acc
    | h ->
        if fst (key_of q h) <= upto then collect (take q h :: acc)
        else List.rev acc
  in
  collect []

(* All events sharing the earliest timestamp, FIFO among them; the
   same-instant batch the slotless engine serves in one round. *)
let pop_batch q =
  match peek_time q with None -> [] | Some t -> drain_until q ~upto:t

let clear q =
  q.size <- 0;
  Array.iteri (fun i s -> q.pos.(i) <- s.length) q.sources

(* Snapshot support: dump every pushed entry still pending with its
   insertion seq, sorted in (time, seq) pop order so the dump is
   canonical, plus the queue's next_seq counter and the source cursor.
   [load] rebuilds a queue that pops the same sequence AND assigns the
   same seqs to future pushes — both are needed for a restored run to
   replay byte-identically. *)
let entries q =
  let live = Array.sub q.data 0 q.size in
  Array.sort (fun a b -> if lt a b then -1 else if lt b a then 1 else 0) live;
  Array.to_list (Array.map (fun e -> (e.time, e.seq, e.payload)) live)

let next_seq q = q.next_seq
let cursor q = Array.copy q.pos

let load q ~next_seq ?(cursor = [||]) items =
  if next_seq < 0 then invalid_arg "Event_queue.load: negative next_seq";
  if next_seq < q.scheduled then
    invalid_arg "Event_queue.load: next_seq below the scheduled seqs";
  if Array.length cursor <> Array.length q.sources then
    invalid_arg "Event_queue.load: cursor does not match the sources";
  Array.iteri
    (fun i p ->
      if p < 0 || p > q.sources.(i).length then
        invalid_arg "Event_queue.load: cursor position out of range")
    cursor;
  Array.blit cursor 0 q.pos 0 (Array.length cursor);
  q.size <- 0;
  List.iter
    (fun (time, seq, payload) ->
      if Float.is_nan time then invalid_arg "Event_queue.load: NaN timestamp";
      if seq < q.scheduled || seq >= next_seq then
        invalid_arg "Event_queue.load: seq out of range";
      let entry = { time; seq; payload } in
      ensure_capacity q entry;
      q.data.(q.size) <- entry;
      q.size <- q.size + 1;
      sift_up q (q.size - 1))
    items;
  q.next_seq <- next_seq

let of_entries ~next_seq items =
  let q = create ~capacity:(max 16 (List.length items)) () in
  load q ~next_seq items;
  q
