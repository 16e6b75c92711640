(** Abstract finite-state-machine assembly used while compiling one HLIR
    process.  States are integers; each state owns an ordered list of exit
    edges.  Every clock cycle the realised machine takes the first edge
    whose condition holds (committing that edge's register writes) or stays
    put.  {!realize} turns the abstract machine into registers, wires and
    update equations inside an {!Hlcs_rtl.Ir.builder}. *)

type edge = {
  e_cond : Hlcs_rtl.Ir.expr option;  (** [None] = always taken *)
  e_commits : (Hlcs_rtl.Ir.reg * Hlcs_rtl.Ir.expr) list;
  e_next : int;
}

type t

val create : unit -> t
val fresh_state : t -> int
(** States are numbered from 0; state 0 is the reset state. *)

val add_edge : t -> int -> edge -> unit
(** Appends an edge with lower priority than existing ones.
    @raise Invalid_argument if the edge commits a register twice. *)

val has_edges : t -> int -> bool
val state_count : t -> int

val to_dot : t -> name:string -> string
(** A Graphviz rendering of the machine: one node per state, edges
    labelled with their conditions and the number of register commits. *)

type realized

type request = {
  rq_name : string;  (** names the request's inner wires *)
  rq_done : Hlcs_rtl.Ir.expr;  (** the 1-bit answer its states wait for *)
  rq_states : int list;  (** the states that raise it, in order *)
}
(** A handshake shared by many states: each of [rq_states] raises one
    request line and leaves on [rq_done]. *)

val realize :
  Hlcs_rtl.Ir.builder -> name:string -> requests:request list -> t -> realized
(** Realises the machine one-hot inside the builder:

    - one 1-bit register per state, [<name>_s<k>]; state 0's resets to 1,
      every other to 0, and exactly one is set at every clock edge;
    - one "taken" wire per live edge, [<name>_s<k>_e<i>]: in this state,
      this condition true and no earlier condition of the state true (the
      first edge of a state that is unconditional is the state bit
      itself, and edges after an unconditional edge are dead);
    - a state bit's next value is the OR of its incoming taken wires, or
      "in this state and none of its own taken wires set" when the state
      has no unconditional edge.  A bit with no way in or out gets no
      update and holds its reset value;
    - per request, a {e request tree} and a {e gate tree} over the same
      nodes.  The request line is the OR of the request's state bits as
      a tree of fan-in 8 whose inner nodes are wires named [rq_name].
      Each inner node also gets a gate wire, [<rq_name>_gate]: its
      parent's gate ANDed with the node's OR, where the root's gate is
      [rq_done] itself.  An edge of a request state whose condition is
      [rq_done] (the same value) reads the gate of the node right above
      the state instead.  A state bit implies every OR above it, so
      such a taken wire keeps its value;
    - per committed register, the commit sites are grouped by committed
      value, and each group is enabled by the OR of its taken wires.
      Takens are mutually exclusive, so at most one group is enabled: runs
      of up to 8 groups become an enable wire (their OR, [<reg>_en]) and a
      value wire (a mux chain, [<reg>_nx]), level by level until one group
      is left, and the register takes [enable ? value : itself].

    Every OR and every select reads at most 8 nets: wider ones become
    trees whose inner nodes are wires of their own, so a state change
    re-evaluates paths of logarithmic length instead of chains that grow
    with the machine, and no assignment or register update reads more
    nets as the machine grows.  Next-state logic and the groups read taken
    wires, never raw conditions, so a condition that toggles while its
    state is inactive changes no taken wire and wakes no register
    update.  A request's [rq_done] is read by at most 8 gates (or, with
    at most 8 states, by their taken wires), and each gate by at most 8
    gates or taken wires, so no net's fan-out grows with the number of
    states that wait on it: a [rq_done] toggle re-evaluates at most 8
    nodes per tree level, and below the top level only under the one
    gate whose subtree holds the current state.  The cost is one AND
    level per tree level on the path from [rq_done] to a taken wire.

    @raise Invalid_argument if a request names an unknown state, or a
    state raises two requests. *)

val request_lines : realized -> Hlcs_rtl.Ir.expr list
(** Per request passed to {!realize}, in order, its request line: the
    1-bit "the machine is in one of [rq_states]". *)

val in_state : realized -> int -> Hlcs_rtl.Ir.expr
(** The 1-bit expression "the machine is currently in this state": the
    state's register. *)
