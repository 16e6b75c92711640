(** Configuration A of the communication-refinement experiment (Figure 3):
    the {e functional} model.  The application talks to the very same
    guarded-method interface, but the engine behind it performs the
    transfers directly on the memory model with a loose timing budget
    (2 clock cycles per command, 1 per data word) — no bus, no pins.
    This is the model the paper recommends writing first, "exploiting
    the high simulation speeds achievable with such descriptions". *)

type t

val spawn :
  Hlcs_engine.Kernel.t ->
  clock:Hlcs_engine.Clock.t ->
  memory:Hlcs_pci.Pci_memory.t ->
  ?policy:Hlcs_osss.Policy.t ->
  ?stall:Hlcs_fault.Fault.stall ->
  ?guard:Hlcs_fault.Fault.guard_policy ->
  ?fault_stats:Hlcs_fault.Fault.stats ->
  script:Hlcs_pci.Pci_types.request list ->
  ?on_done:(unit -> unit) ->
  unit ->
  t
(** Creates the native interface object, the functional engine and the
    application process replaying [script].  [on_done] fires when the
    application has completed all requests.

    Fault-injection hooks: [stall] freezes the engine for a window before
    it fetches the given command; [guard] makes the application issue its
    blocking calls through the bounded
    {!Interface_object.Native.put_command_bounded} family, so a stalled
    engine produces counted timeouts, retries and (when the budget rides
    out the stall) recoveries instead of a hang — all tallied into
    [fault_stats].  When the budget is exhausted the application abandons
    the rest of the script ({!gave_up}) and still fires [on_done]. *)

val observed : t -> (int * int) list
(** (sequence, word) pairs read back by the application, oldest first. *)

val gave_up : t -> bool
(** The application abandoned the script after a bounded call exhausted
    its retry budget. *)
