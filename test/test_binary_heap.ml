(* Unit tests for Qnet_graph.Binary_heap. *)

module Heap = Qnet_graph.Binary_heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let drain h =
  let rec go acc =
    match Heap.pop_min h with
    | None -> List.rev acc
    | Some (k, v) -> go ((k, v) :: acc)
  in
  go []

let test_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "is_empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_bool "pop none" true (Heap.pop_min h = None);
  check_bool "peek none" true (Heap.peek_min h = None)

let test_single () =
  let h = Heap.create () in
  Heap.push h 3.5 "x";
  check_int "length one" 1 (Heap.length h);
  check_bool "peek" true (Heap.peek_min h = Some (3.5, "x"));
  check_bool "pop" true (Heap.pop_min h = Some (3.5, "x"));
  check_bool "empty after" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.; 1.; 4.; 2.; 3. ];
  Alcotest.(check (list (pair (float 0.) int)))
    "ascending pops"
    [ (1., 1); (2., 2); (3., 3); (4., 4); (5., 5) ]
    (drain h)

let test_duplicates () =
  let h = Heap.create () in
  Heap.push h 1. "a";
  Heap.push h 1. "b";
  Heap.push h 0.5 "c";
  let keys = List.map fst (drain h) in
  Alcotest.(check (list (float 0.))) "keys sorted" [ 0.5; 1.; 1. ] keys

let test_growth () =
  let h = Heap.create ~capacity:2 () in
  for i = 1000 downto 1 do
    Heap.push h (float_of_int i) i
  done;
  check_int "all stored" 1000 (Heap.length h);
  let popped = drain h in
  check_int "all popped" 1000 (List.length popped);
  let keys = List.map fst popped in
  check_bool "sorted output" true
    (keys = List.sort Float.compare keys)

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 3. 3;
  Heap.push h 1. 1;
  check_bool "pop 1" true (Heap.pop_min h = Some (1., 1));
  Heap.push h 0.5 0;
  Heap.push h 2. 2;
  check_bool "pop 0" true (Heap.pop_min h = Some (0.5, 0));
  check_bool "pop 2" true (Heap.pop_min h = Some (2., 2));
  check_bool "pop 3" true (Heap.pop_min h = Some (3., 3))

let test_clear () =
  let h = Heap.create () in
  Heap.push h 1. ();
  Heap.push h 2. ();
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  Heap.push h 5. ();
  check_bool "usable after clear" true (Heap.pop_min h = Some (5., ()))

let test_negative_and_inf_keys () =
  let h = Heap.create () in
  Heap.push h infinity "inf";
  Heap.push h (-2.) "neg";
  Heap.push h 0. "zero";
  Alcotest.(check (list string))
    "order with special floats" [ "neg"; "zero"; "inf" ]
    (List.map snd (drain h))

(* Reset-and-refill is the reuse idiom of the SSSP scratch heap: many
   rounds over one heap must behave like fresh heaps every round. *)
let test_reset_reuse () =
  let h = Heap.create ~capacity:2 () in
  for round = 1 to 5 do
    Heap.reset h;
    check_bool "empty after reset" true (Heap.is_empty h);
    (* Descending pushes force sift-ups; size exceeds the initial
       capacity so growth happens on a reused heap too. *)
    for i = 64 downto 1 do
      Heap.push h (float_of_int (i * round)) i
    done;
    let popped = List.map snd (drain h) in
    check_bool
      (Printf.sprintf "round %d ascending" round)
      true
      (popped = List.init 64 (fun i -> i + 1))
  done

(* Property: heap sort agrees with List.sort on random inputs. *)
let prop_heapsort =
  QCheck.Test.make ~name:"heap sort matches list sort" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k k) keys;
      let popped = List.map fst (drain h) in
      popped = List.sort Float.compare keys)

(* The allocation-free pop: min_key/min_value read the entry pop_min
   would return, drop_min removes exactly it. *)
let test_peek_and_drop () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 4.; 2.; 7.; 1. ];
  Alcotest.(check (float 0.)) "min key" 1. (Heap.min_key h);
  check_int "min value" 1 (Heap.min_value h);
  check_int "reading removes nothing" 4 (Heap.length h);
  Heap.drop_min h;
  check_int "one dropped" 3 (Heap.length h);
  check_bool "next minimum" true (Heap.peek_min h = Some (2., 2));
  Heap.clear h;
  Alcotest.check_raises "min_key on empty"
    (Invalid_argument "Binary_heap.min_key: empty heap") (fun () ->
      ignore (Heap.min_key h));
  Alcotest.check_raises "min_value on empty"
    (Invalid_argument "Binary_heap.min_value: empty heap") (fun () ->
      ignore (Heap.min_value h));
  Alcotest.check_raises "drop_min on empty"
    (Invalid_argument "Binary_heap.drop_min: empty heap") (fun () ->
      Heap.drop_min h)

(* Property: over a random interleaving of pushes and pops, draining by
   min_key/min_value/drop_min yields the same entries in the same order
   as pop_min on a twin heap — ties included. *)
let prop_drop_matches_pop =
  QCheck.Test.make ~name:"drop_min pops what pop_min pops" ~count:200
    QCheck.(list (option (int_bound 20)))
    (fun ops ->
      let a = Heap.create () and b = Heap.create () in
      let same = ref true in
      let pop_both () =
        match Heap.pop_min a with
        | None -> same := !same && Heap.is_empty b
        | Some (k, v) ->
            same :=
              !same && Heap.min_key b = k && Heap.min_value b = v;
            Heap.drop_min b
      in
      List.iteri
        (fun i op ->
          match op with
          | Some k ->
              (* Integer keys make ties common; the value tells twins apart. *)
              Heap.push a (float_of_int k) i;
              Heap.push b (float_of_int k) i
          | None -> pop_both ())
        ops;
      while not (Heap.is_empty a) do
        pop_both ()
      done;
      !same && Heap.is_empty b)

let () =
  Alcotest.run "binary_heap"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "peek and drop" `Quick test_peek_and_drop;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "reset reuse" `Quick test_reset_reuse;
          Alcotest.test_case "special keys" `Quick test_negative_and_inf_keys;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heapsort;
          QCheck_alcotest.to_alcotest prop_drop_matches_pop;
        ] );
    ]
