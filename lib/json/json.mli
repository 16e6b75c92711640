(** A minimal self-contained JSON layer: one value type, a strict RFC
    8259 parser and a canonical printer.

    The build image carries no external JSON library, and the repo's
    machine-readable artefacts (CLI reports, the serve wire protocol, the
    [Run_config] codec) only need plain data — so this module is the
    single JSON dependency everything above the engine shares: reports
    are built as {!t} and printed by {!to_string}, and the CLI contract
    tests read them back with {!parse}.  The printer's layout (["key":
    value] with a space after the colon, [", "] between members) is also
    the one the swarm report prints by hand, with {!escape_string}, so
    that payload splices into the same envelope byte stream the golden
    tests diff. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of exactly one JSON value (trailing whitespace allowed,
    trailing garbage rejected).  Numbers without [.], [e] or [E] that fit
    an OCaml [int] parse as {!Int}, everything else as {!Float}.  The
    error string carries a byte offset. *)

val parse_exn : string -> t
(** @raise Failure on a parse error. *)

val to_string : t -> string
(** Canonical single-line rendering: object members as ["k": v] joined
    with [", "], arrays joined with [", "], strings escaped per RFC 8259
    (control characters as [\uXXXX]).  Integer-valued floats below
    [1e15] print as [%.1f] (["2.0"]); every other float prints with the
    fewest of 15, 16 or 17 significant digits that [float_of_string]
    reads back as the same value, so a {!Float} survives
    [parse (to_string v)] exactly. *)

val escape_string : string -> string
(** [escape_string s] is [s] quoted and escaped — the exact escaping
    {!to_string} applies to {!String} values. *)

(** {1 Accessors}

    Result-based field access for decoding protocol frames and job
    files; every error names the missing/mistyped member. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up [k]; [None] on absence or non-objects. *)

val string_field : string -> t -> (string, string) result
val int_field : string -> t -> (int, string) result
val bool_field : string -> t -> (bool, string) result
val float_field : string -> t -> (float, string) result
val list_field : string -> t -> (t list, string) result

val opt_field : string -> t -> (t -> ('a, string) result) -> ('a option, string) result
(** [opt_field k j dec] is [Ok None] when [k] is absent or [Null],
    otherwise [dec] applied to the member (errors propagate). *)

val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
val to_string_val : t -> (string, string) result
val to_bool : t -> (bool, string) result
