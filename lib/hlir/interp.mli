(** Behavioural execution of a checked {!Ast} design on the simulation
    kernel — the "executable specification" stage of the paper's flow.

    Each HLIR process becomes a kernel coroutine; guarded-method calls are
    served by {!Hlcs_osss.Global_object} instances, so the high-level
    communication semantics (blocking guards, queued and arbitrated calls)
    are exactly those of the OSSS library. *)

type t

val eval : (Ast.expr -> Hlcs_logic.Bitvec.t) -> Ast.expr -> Hlcs_logic.Bitvec.t
(** [eval leaf e]: the value of [e], its operators computed by
    {!Hlcs_logic.Op}'s table; [leaf] answers the [Var], [Field], [Index]
    and [Port] leaves, and may raise to give up.
    @raise Invalid_argument on a width violation. *)

val elaborate : Hlcs_engine.Kernel.t -> clock:Hlcs_engine.Clock.t -> Ast.design -> t
(** Creates one signal per port, one global object per object declaration
    and spawns every process.  The design is checked first.
    @raise Typecheck.Type_error on an ill-formed design. *)

val design : t -> Ast.design

val in_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
(** The signal backing an input port; the environment writes it.
    @raise Not_found for unknown names. *)

val out_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
(** The signal an output port drives; the environment reads it. *)

val object_state : t -> string -> (string * Hlcs_logic.Bitvec.t) list
(** Current field values of an object (debug/verification access). *)

val object_arrays : t -> string -> (string * Hlcs_logic.Bitvec.t list) list
(** Current contents of an object's register banks. *)

val native_call :
  t ->
  obj:string ->
  meth:string ->
  args:Hlcs_logic.Bitvec.t list ->
  Hlcs_logic.Bitvec.t option
(** Performs a guarded-method call from a native kernel process — how
    hand-written IP models interact with the units under design. Blocks
    like any other caller. *)
