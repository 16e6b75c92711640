type t = {
  signal : bool Signal.t;
  rising_ev : Kernel.event;
  falling_ev : Kernel.event;
  period : Time.t;
  mutable cycle : int;
  mutable observers : (cycle:int -> unit) list;  (* reversed registration order *)
}

let create kernel ~name ~period ?(start = Time.zero) () =
  if Time.compare period Time.zero <= 0 then
    invalid_arg "Clock.create: period must be positive";
  let half = Time.div period 2 in
  if Time.compare half Time.zero <= 0 then invalid_arg "Clock.create: period too small";
  let clk =
    {
      signal = Signal.create kernel ~name ~eq:Bool.equal false;
      rising_ev = Kernel.make_event kernel (name ^ ".rising");
      falling_ev = Kernel.make_event kernel (name ^ ".falling");
      period;
      cycle = 0;
      observers = [];
    }
  in
  (* The generator is a self-rearming method process on a private timed
     event: each activation toggles the level and re-arms the timer, with
     no coroutine suspension (continuation capture, timer-event and waiter
     allocation) per half-cycle.  Phase placement matches the coroutine it
     replaces: the timer fires in the timed-notify phase and the toggle
     runs in the following evaluate. *)
  let tick_ev = Kernel.make_event kernel (name ^ ".tick") in
  let started = ref (Time.compare start Time.zero <= 0) in
  let high = ref false in
  let tick () =
    if not !started then begin
      started := true;
      Kernel.notify_after tick_ev start
    end
    else if !high then begin
      high := false;
      Signal.write clk.signal false;
      Kernel.notify_delta clk.falling_ev;
      Kernel.notify_after tick_ev (Time.sub period half)
    end
    else begin
      high := true;
      Signal.write clk.signal true;
      clk.cycle <- clk.cycle + 1;
      (match clk.observers with
      | [] -> ()
      | obs -> List.iter (fun f -> f ~cycle:clk.cycle) (List.rev obs));
      Kernel.notify_delta clk.rising_ev;
      Kernel.notify_after tick_ev half
    end
  in
  ignore (Kernel.spawn_method kernel ~name:(name ^ ".gen") ~sensitive:[ tick_ev ] tick);
  clk

let on_rising c f = c.observers <- f :: c.observers
let signal c = c.signal
let rising c = c.rising_ev
let falling c = c.falling_ev
let period c = c.period
let cycles c = c.cycle
let wait_rising c = Kernel.wait c.rising_ev
let wait_falling c = Kernel.wait c.falling_ev

let wait_edges c n =
  if n < 1 then invalid_arg "Clock.wait_edges: n must be >= 1";
  for _ = 1 to n do
    wait_rising c
  done
