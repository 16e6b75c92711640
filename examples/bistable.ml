(* Figure 1 of the paper, verbatim: two modules each contain a bistable
   declared as a global object, a third lives at top level, and all three
   are connected.  When module 1 invokes set(), the change is observable
   in module 2's instance — "all the connected global objects share a
   common state space."

   Run with:  dune exec examples/bistable.exe *)

module K = Hlcs_engine.Kernel
module Time = Hlcs_engine.Time
module Bistable = Hlcs_osss.Bistable

let () =
  let kernel = K.create () in
  (* the three instances of Figure 1 *)
  let module1_bistable = Bistable.create kernel ~name:"module1.bistable" in
  let module2_bistable = Bistable.create kernel ~name:"module2.bistable" in
  let top_bistable = Bistable.create kernel ~name:"top.bistable" in
  Bistable.connect module1_bistable top_bistable;
  Bistable.connect top_bistable module2_bistable;

  let _ =
    K.spawn kernel ~name:"module1" (fun () ->
        K.delay kernel (Time.ns 30);
        Printf.printf "[%4d ns] module1: set()\n" 30;
        Bistable.set module1_bistable)
  in
  let _ =
    K.spawn kernel ~name:"module2" (fun () ->
        Printf.printf "[%4d ns] module2: get_state() = %b\n"
          (Time.to_ps (K.now kernel) / 1000)
          (Bistable.get_state module2_bistable);
        (* a guarded call: suspends until some connected instance sets *)
        Bistable.wait_until_set module2_bistable;
        Printf.printf "[%4d ns] module2: observed the set, get_state() = %b\n"
          (Time.to_ps (K.now kernel) / 1000)
          (Bistable.get_state module2_bistable))
  in
  K.run kernel;
  let agrees = Hlcs_osss.Global_object.peek (Bistable.obj top_bistable) in
  Printf.printf "top-level instance agrees: %b\n" agrees;
  exit (if agrees then 0 else 1)
