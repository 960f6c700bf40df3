(* Array-backed binary min-heap on two parallel flat arrays: an
   unboxed float array for keys and a value array.  Unlike the obvious
   [{ key; value } array] layout this allocates nothing per push — an
   insertion is two array stores plus a hole-bubbling pass — and only
   touches the allocator when the backing arrays double.  [reset]
   keeps the storage, so the repeated SSSP runs in the routing layer
   reuse one heap instead of churning a fresh one per run. *)

type 'a t = {
  mutable keys : float array;
  mutable vals : 'a array;
  mutable len : int;
  capacity : int;
}

let create ?(capacity = 16) () =
  { keys = [||]; vals = [||]; len = 0; capacity = max capacity 1 }

let length h = h.len
let is_empty h = h.len = 0

(* The backing arrays are allocated lazily on first push so no dummy
   element of type ['a] is ever needed. *)
let ensure_room h seed =
  if Array.length h.vals = 0 then begin
    h.keys <- Array.make h.capacity 0.;
    h.vals <- Array.make h.capacity seed
  end
  else if h.len = Array.length h.vals then begin
    let n = 2 * h.len in
    let keys = Array.make n 0. in
    let vals = Array.make n h.vals.(0) in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals
  end

let push h key value =
  ensure_room h value;
  (* Bubble a hole up from the end, writing the new entry once. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < h.keys.(parent) then begin
      h.keys.(!i) <- h.keys.(parent);
      h.vals.(!i) <- h.vals.(parent);
      i := parent
    end
    else moving := false
  done;
  h.keys.(!i) <- key;
  h.vals.(!i) <- value

let min_key h =
  if h.len = 0 then invalid_arg "Binary_heap.min_key: empty heap";
  h.keys.(0)

let min_value h =
  if h.len = 0 then invalid_arg "Binary_heap.min_value: empty heap";
  h.vals.(0)

let drop_min h =
  if h.len = 0 then invalid_arg "Binary_heap.drop_min: empty heap";
  h.len <- h.len - 1;
  if h.len > 0 then begin
    (* Sift the displaced last entry down through a hole at the root. *)
    let key = h.keys.(h.len) and value = h.vals.(h.len) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= h.len then moving := false
      else begin
        let r = l + 1 in
        let c = if r < h.len && h.keys.(r) < h.keys.(l) then r else l in
        if h.keys.(c) < key then begin
          h.keys.(!i) <- h.keys.(c);
          h.vals.(!i) <- h.vals.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- value
  end

let pop_min h =
  if h.len = 0 then None
  else begin
    let top = (min_key h, min_value h) in
    drop_min h;
    Some top
  end

let peek_min h = if h.len = 0 then None else Some (h.keys.(0), h.vals.(0))
let clear h = h.len <- 0

let reset = clear
