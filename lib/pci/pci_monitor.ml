module Kernel = Hlcs_engine.Kernel
module Resolved = Hlcs_engine.Resolved
module Clock = Hlcs_engine.Clock
module Time = Hlcs_engine.Time
module Logic = Hlcs_logic.Logic
module Lvec = Hlcs_logic.Lvec
module Bitvec = Hlcs_logic.Bitvec

type violation = { v_time : Time.t; v_rule : string; v_detail : string }

type current = {
  mutable cur_cmd : Pci_types.command option;
  mutable cur_addr : int;
  mutable cur_data : int list;  (* reversed *)
  mutable cur_devsel : bool;
  mutable cur_stopped : bool;
  mutable cur_cycles : int;  (* since address phase *)
}

type t = {
  kernel : Kernel.t;
  mutable txns : Pci_types.transaction list;  (* reversed *)
  mutable viols : violation list;  (* reversed *)
  mutable transfers : int;
}

let lvec_to_int v =
  match Lvec.to_bitvec v with Some bv -> Some (Bitvec.to_int bv) | None -> None

let create kernel ~bus =
  let t = { kernel; txns = []; viols = []; transfers = 0 } in
  let violate rule fmt =
    Format.kasprintf
      (fun detail ->
        t.viols <- { v_time = Kernel.now kernel; v_rule = rule; v_detail = detail } :: t.viols)
      fmt
  in
  let clk = bus.Pci_bus.clock in
  let cur =
    { cur_cmd = None; cur_addr = 0; cur_data = []; cur_devsel = false;
      cur_stopped = false; cur_cycles = 0 }
  in
  let in_txn = ref false in
  (* the parity check reads the previous edge's AD and C/BE; they are
     kept as sampled (published values never change) and decoded only
     when PAR is driven *)
  let prev_ad = ref (Lvec.all_z 32) and prev_cbe = ref (Lvec.all_z 4) in
  let finalize termination =
      (match cur.cur_cmd with
      | Some cmd ->
          t.txns <-
            {
              Pci_types.tx_command = cmd;
              tx_address = cur.cur_addr;
              tx_data = List.rev cur.cur_data;
              tx_termination = termination;
            }
            :: t.txns
      | None -> ());
      cur.cur_cmd <- None;
      cur.cur_data <- [];
      cur.cur_devsel <- false;
      cur.cur_stopped <- false;
      cur.cur_cycles <- 0;
      in_txn := false
  in
  (* one straight-line check per rising edge, with no wait in the middle:
     a method process sensitive to the edge event gives the same schedule as
     the wait_rising loop it replaces without a coroutine suspend per cycle *)
  let check () =
      let frame = Pci_bus.asserted bus.Pci_bus.frame_n in
      let irdy = Pci_bus.asserted bus.Pci_bus.irdy_n in
      let trdy = Pci_bus.asserted bus.Pci_bus.trdy_n in
      let devsel = Pci_bus.asserted bus.Pci_bus.devsel_n in
      let stop = Pci_bus.asserted bus.Pci_bus.stop_n in
      let ad = Resolved.read bus.Pci_bus.ad in
      let cbe = Resolved.read bus.Pci_bus.cbe in
      (* parity of the previous cycle — checked only when PAR is actually
         driven (a floating pulled-up PAR carries no information) and the
         previous AD and C/BE were both defined *)
      (match Lvec.get (Resolved.read_raw bus.Pci_bus.par) 0 with
      | (Logic.Zero | Logic.One) as got -> (
          match (lvec_to_int !prev_ad, lvec_to_int !prev_cbe) with
          | Some pad, Some pcbe ->
              let expect = Pci_types.parity32_4 ~ad:pad ~cbe:pcbe in
              if expect <> (got = Logic.One) then
                violate "PAR" "parity mismatch for ad=%08x cbe=%x" pad pcbe
          | _ -> ())
      | Logic.X | Logic.Z -> ());
      prev_ad := ad;
      prev_cbe := cbe;
      if not !in_txn then begin
        if irdy && not frame then
          violate "IRDY" "IRDY# asserted outside any transaction";
        if frame then begin
          (* address phase *)
          in_txn := true;
          cur.cur_cycles <- 0;
          (match lvec_to_int ad with
          | Some a -> cur.cur_addr <- a
          | None ->
              violate "AD" "AD not fully driven during address phase (%s)"
                (Lvec.to_string ad);
              cur.cur_addr <- 0);
          match Option.bind (lvec_to_int cbe) Pci_types.command_of_cbe with
          | Some cmd -> cur.cur_cmd <- Some cmd
          | None ->
              violate "CBE" "undecodable bus command %s" (Lvec.to_string cbe);
              cur.cur_cmd <- None
        end
      end
      else begin
        cur.cur_cycles <- cur.cur_cycles + 1;
        if devsel then cur.cur_devsel <- true;
        if stop then cur.cur_stopped <- true;
        (* data transfer *)
        if irdy && trdy then begin
          if not devsel then
            violate "DEVSEL" "data transfer without DEVSEL# asserted";
          t.transfers <- t.transfers + 1;
          (match lvec_to_int ad with
          | Some w -> cur.cur_data <- w :: cur.cur_data
          | None ->
              violate "AD" "AD not fully driven during data transfer (%s)"
                (Lvec.to_string ad);
              cur.cur_data <- 0 :: cur.cur_data)
        end;
        (* end of transaction: both FRAME# and IRDY# deasserted *)
        if (not frame) && not irdy then begin
          let termination =
            if cur.cur_data = [] then
              if cur.cur_stopped then Pci_types.Retry
              else if not cur.cur_devsel then Pci_types.Master_abort
              else Pci_types.Completed (* zero-data completion: unusual *)
            else if cur.cur_stopped then Pci_types.Disconnect (List.length cur.cur_data)
            else Pci_types.Completed
          in
          if cur.cur_data = [] && cur.cur_devsel && not cur.cur_stopped then
            violate "TERM" "transaction ended without data, retry or abort";
          finalize termination
        end
        else if (not cur.cur_devsel) && cur.cur_cycles > Pci_master.devsel_timeout + 3
        then begin
          violate "DEVSEL" "no DEVSEL# and the master did not abort in time";
          finalize Pci_types.Master_abort
        end
      end
  in
  (* the initial activation precedes any clock edge; skip it, as the
     coroutine's first wait_rising did *)
  let started = ref false in
  ignore
    (Kernel.spawn_method kernel ~name:"pci_monitor"
       ~sensitive:[ Clock.rising clk ]
       (fun () -> if !started then check () else started := true));
  t

let transactions t = List.rev t.txns
let violations t = List.rev t.viols
let data_transfers t = t.transfers

let pp_violation ppf v =
  Format.fprintf ppf "[%a] %s: %s" Time.pp v.v_time v.v_rule v.v_detail
