(* Property tests for the kernel's scheduling containers.

   [Pq] is the timed-event queue: a stable binary min-heap.  Determinism of
   whole simulations rests on two properties — keys pop in non-decreasing
   order, and entries with equal keys pop in insertion order — so both are
   checked against randomized workloads, plus full behavioural equivalence
   with a reference model under interleaved add/pop sequences.

   [Fifo] is the runnable ring buffer; it is checked against [Stdlib.Queue]
   under interleaved push/pop, including wrap-around and growth. *)

module Pq = Hlcs_engine.Pq
module Fifo = Hlcs_engine.Fifo

let drain pq =
  let rec go acc = if Pq.is_empty pq then List.rev acc else go (Pq.pop pq :: acc) in
  go []

(* keys are drawn from a small range so same-key runs (the stability-
   sensitive case, which the insertion sequence in each entry decides)
   are common rather than exceptional *)
let small_key = QCheck2.Gen.int_bound 15

let keys_gen = QCheck2.Gen.(list_size (int_bound 200) small_key)

let test_pq_sorted =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"pq pops keys in non-decreasing order" keys_gen
       (fun keys ->
         let pq = Pq.create () in
         List.iteri (fun i k -> Pq.add pq k i) keys;
         let out = List.map fst (drain pq) in
         List.sort compare keys = out))

let test_pq_fifo_stable =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"pq equal keys pop in insertion order" keys_gen
       (fun keys ->
         let pq = Pq.create () in
         (* payload = insertion sequence number *)
         List.iteri (fun i k -> Pq.add pq k i) keys;
         let out = drain pq in
         (* within every run of one key, payloads must be increasing *)
         let rec check = function
           | (k1, s1) :: ((k2, s2) :: _ as rest) ->
               (k1 <> k2 || s1 < s2) && check rest
           | [ _ ] | [] -> true
         in
         check out))

(* interleaved adds and pops against a sorted-stable-list reference *)
type op = Add of int | Pop

let ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 300)
      (oneof [ map (fun k -> Add k) small_key; return Pop ]))

let model_add model k v =
  (* insert after every entry with key <= k: stable order *)
  let rec go = function
    | (k', v') :: rest when k' <= k -> (k', v') :: go rest
    | rest -> (k, v) :: rest
  in
  go model

let test_pq_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"pq behaves as a stable sorted list" ops_gen
       (fun ops ->
         let pq = Pq.create () in
         let model = ref [] in
         let seq = ref 0 in
         List.for_all
           (fun op ->
             match op with
             | Add k ->
                 Pq.add pq k !seq;
                 model := model_add !model k !seq;
                 incr seq;
                 Pq.length pq = List.length !model
                 && (not (Pq.is_empty pq))
                 && Pq.min_key pq = fst (List.hd !model)
             | Pop -> (
                 match !model with
                 | [] -> Pq.is_empty pq
                 | m :: rest ->
                     model := rest;
                     Pq.pop pq = m))
           ops))

let fifo_ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 300) (oneof [ map (fun x -> Add x) (int_bound 1000); return Pop ]))

let test_fifo_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"fifo ring behaves as Stdlib.Queue" fifo_ops_gen
       (fun ops ->
         let f = Fifo.create ~dummy:(-1) in
         let q = Queue.create () in
         List.for_all
           (fun op ->
             match op with
             | Add x ->
                 Fifo.push f x;
                 Queue.push x q;
                 Fifo.length f = Queue.length q
             | Pop ->
                 if Queue.is_empty q then Fifo.is_empty f
                 else Fifo.pop f = Queue.pop q)
           ops))

let test_fifo_wraparound () =
  (* force the head past the end of the backing array repeatedly, through a
     growth step, and check order end-to-end *)
  let f = Fifo.create ~dummy:0 in
  let expect = Queue.create () in
  for round = 1 to 50 do
    for i = 1 to round do
      Fifo.push f ((round * 100) + i);
      Queue.push ((round * 100) + i) expect
    done;
    for _ = 1 to max 0 (round - 2) do
      Alcotest.(check int) "fifo order" (Queue.pop expect) (Fifo.pop f)
    done
  done;
  while not (Fifo.is_empty f) do
    Alcotest.(check int) "fifo drain" (Queue.pop expect) (Fifo.pop f)
  done;
  Alcotest.(check bool) "model drained too" true (Queue.is_empty expect)

let tests =
  [
    ( "pq",
      [
        test_pq_sorted;
        test_pq_fifo_stable;
        test_pq_model;
        test_fifo_model;
        Alcotest.test_case "fifo wrap-around and growth" `Quick test_fifo_wraparound;
      ] );
  ]
