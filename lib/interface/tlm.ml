module Kernel = Hlcs_engine.Kernel
module Clock = Hlcs_engine.Clock
module Time = Hlcs_engine.Time
module Pci_types = Hlcs_pci.Pci_types
module Pci_memory = Hlcs_pci.Pci_memory
module Fault = Hlcs_fault.Fault
module N = Interface_object.Native

(* the functional engine's loose timing budget, in clock cycles *)
let cycles_per_command = 2
let cycles_per_word = 1

type t = {
  mutable obs : (int * int) list;  (* newest first *)
  mutable served : int;
  mutable gave_up : bool;
}

let spawn kernel ~clock ~memory ?policy ?stall ?guard ?fault_stats ~script
    ?(on_done = fun () -> ()) () =
  let ifc = N.create kernel ~name:"bus_if_tlm" ?policy () in
  let t = { obs = []; served = 0; gave_up = false } in
  let stats = fault_stats in
  let engine () =
    let rec serve () =
      (match stall with
      | Some s when t.served = s.Fault.st_command ->
          (* fault injection: the engine freezes before fetching this
             command, long enough for the application's guard timeouts to
             fire; [t.served] has moved past the trigger afterwards so the
             stall is one-shot *)
          (match stats with
          | Some st ->
              st.Fault.fs_stalled_cycles <-
                st.Fault.fs_stalled_cycles + s.Fault.st_cycles;
              Fault.record st ~time:(Kernel.now kernel) ~label:"engine-stall"
                ~detail:
                  (Printf.sprintf "before command %d, %d cycles"
                     s.Fault.st_command s.Fault.st_cycles)
          | None -> ());
          Clock.wait_edges clock (max 1 s.Fault.st_cycles)
      | Some _ | None -> ());
      let op, len, addr = N.get_command ifc in
      Clock.wait_edges clock cycles_per_command;
      t.served <- t.served + 1;
      for k = 0 to len - 1 do
        Clock.wait_edges clock cycles_per_word;
        let a = addr + (4 * k) in
        if Bus_command.op_is_write op then
          Pci_memory.write32 memory a (N.eng_data_get ifc)
        else N.eng_data_put ifc (Pci_memory.read32 memory a)
      done;
      serve ()
    in
    serve ()
  in
  (* Wraps a bounded call with the campaign accounting: every timeout is
     counted; an eventually-granted call that timed out at least once is a
     recovery; exhaustion makes the application give up the rest of the
     script rather than hang. *)
  let bounded : 'a. ((on_timeout:(int -> unit) -> ('a, _) result)) -> 'a option =
    fun run ->
     let timeouts = ref 0 in
     let on_timeout _attempt =
       incr timeouts;
       match stats with
       | Some st ->
           st.Fault.fs_timeouts <- st.Fault.fs_timeouts + 1;
           Fault.record st ~time:(Kernel.now kernel) ~label:"guard-timeout"
             ~detail:(Printf.sprintf "attempt %d" !timeouts)
       | None -> ()
     in
     match run ~on_timeout with
     | Ok v ->
         (match stats with
         | Some st when !timeouts > 0 ->
             st.Fault.fs_retries <- st.Fault.fs_retries + !timeouts;
             st.Fault.fs_recoveries <- st.Fault.fs_recoveries + 1;
             Fault.record st ~time:(Kernel.now kernel) ~label:"guard-recovery"
               ~detail:(Printf.sprintf "granted after %d timeouts" !timeouts)
         | Some _ | None -> ());
         Some v
     | Error (info : Hlcs_osss.Global_object.timeout_info) ->
         (match stats with
         | Some st ->
             st.Fault.fs_retries <-
               st.Fault.fs_retries + (info.ti_attempts - 1);
             st.Fault.fs_exhaustions <- st.Fault.fs_exhaustions + 1;
             Fault.record st ~time:(Kernel.now kernel) ~label:"guard-exhausted"
               ~detail:
                 (Printf.sprintf "%s.%s after %d attempts" info.ti_object
                    info.ti_method info.ti_attempts)
         | None -> ());
         t.gave_up <- true;
         None
  in
  let app () =
    let cnt = ref 0 in
    (try
       List.iter
         (fun (r : Pci_types.request) ->
           if t.gave_up then raise Exit;
           match Bus_command.of_request r with
           | None -> invalid_arg "Tlm: config commands unsupported"
           | Some (op, len, addr) -> (
               (match guard with
               | None -> N.put_command ifc ~op ~len ~addr
               | Some g -> (
                   match
                     bounded (fun ~on_timeout ->
                         N.put_command_bounded ifc ~timeout:g.Fault.gp_timeout
                           ~retries:g.Fault.gp_retries
                           ~backoff:g.Fault.gp_backoff ~on_timeout ~op ~len
                           ~addr ())
                   with
                   | Some () -> ()
                   | None -> raise Exit));
               if Bus_command.op_is_write op then
                 List.iter (N.app_data_put ifc) r.rq_data
               else
                 for _ = 1 to max 1 len do
                   let w =
                     match guard with
                     | None -> Some (N.app_data_get ifc)
                     | Some g ->
                         bounded (fun ~on_timeout ->
                             N.app_data_get_bounded ifc
                               ~timeout:g.Fault.gp_timeout
                               ~retries:g.Fault.gp_retries
                               ~backoff:g.Fault.gp_backoff ~on_timeout ())
                   in
                   match w with
                   | Some w ->
                       t.obs <- (!cnt land 0xFF, w) :: t.obs;
                       incr cnt
                   | None -> raise Exit
                 done))
         script
     with Exit -> ());
    on_done ()
  in
  ignore (Kernel.spawn kernel ~name:"tlm_engine" engine);
  ignore (Kernel.spawn kernel ~name:"tlm_app" app);
  t

let observed t = List.rev t.obs
let gave_up t = t.gave_up
