(** Code-generating backend for {!Ir.design}s: the levelized netlist
    printed as straight-line OCaml (one function per combinational level,
    flat [int] / [Bitvec.t] arrays indexed by dense net ids, no
    per-assignment closure dispatch), compiled out-of-process with
    ocamlopt, loaded with [Dynlink] and cached on disk as entries of a
    {!Hlcs_store.Store}, which describes their names, fingerprints,
    pruning and corruption recovery.

    The emitted code mirrors the {!Compile} interpreter's value model op
    for op, so a [`Compiled] simulation is byte-identical (outputs,
    registers, VCDs) to a [`Levelized] one.  Every failure path — no
    ocamlopt on PATH, bytecode runtime, unusable cache directory, compile
    or Dynlink error — surfaces as [Error reason] so callers ({!Sim}) can
    degrade to the interpreter instead of aborting. *)

val design_key : Ir.design -> string
(** MD5 of the marshalled design: the content hash artefacts are cached
    under (the same scheme the synthesis cache uses). *)

val emit_ocaml : ?key:string -> Ir.design -> string
(** The plugin source for a design: a self-contained module referencing
    only [Hlcs_logic.Bitvec] and [Hlcs_rtl.Codegen_registry], whose sole
    top-level effect registers an instance factory under [key] (default
    {!design_key}).  Pure; raises [Invalid_argument] when {!Ir.validate}
    fails. *)

val available : unit -> bool
(** True when the native toolchain is usable: native runtime, ocamlopt on
    PATH and the library interfaces reachable (out of dune's [_build]
    tree, or via the [HLCS_CODEGEN_INC] colon-separated override). *)

type provenance = Hlcs_store.Store.provenance =
  | Memo  (** in-process factory memo hit *)
  | Disk  (** loaded from the on-disk artefact cache *)
  | Built  (** emitted and compiled in this call *)

val instance : Ir.design -> (Codegen_registry.inst * provenance, string) result
(** A runnable compiled instance of the design: reuses the in-process
    factory memo, else loads the cached [.cmxs] (a corrupt one is deleted
    and rebuilt once), else emits and compiles.  A failed build is not
    remembered: the next call tries again.  The design's content key is
    remembered for the last few physical designs, so re-instantiating one
    neither marshals nor validates it again.
    @raise Invalid_argument when the design does not validate. *)

val prepare : Ir.design -> (string * provenance, string) result
(** Ensures the on-disk artefact exists without loading it; returns its
    path.  Used by the bench harness to time emission+compilation and by
    the cache round-trip tests. *)

val clear_memo : unit -> unit
(** Drops the in-process factory memo (tests and cold-cache timing). *)
