(** The diagnostics core every static analysis in this repository emits
    through: one record type, stable rule identifiers, three severities,
    structured locations, text and JSON renderers, per-rule configuration
    and the exit-code policy the CLI and the CI alias share.

    A diagnostic names {e where} ([design.scope.path] — the scope is a
    process, object, method or net; the path a statement path such as
    [2.while.0]), {e what} (a stable kebab-case rule id) and {e how bad}
    ({!severity}).  Producers construct diagnostics with {!make};
    consumers filter them with a {!config}, render them with
    {!render_text}/{!to_json} and turn them into a process exit code
    with {!exit_code}. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val compare_severity : severity -> severity -> int
(** Orders [Error > Warning > Info]. *)

type location = {
  loc_design : string;  (** enclosing design / netlist name *)
  loc_scope : string option;
      (** process, object, [object.method], or net within the design *)
  loc_path : string option;
      (** statement path inside the scope, e.g. [1.while.0.then.2] *)
}

type t = {
  d_rule : string;  (** stable kebab-case rule identifier *)
  d_severity : severity;
  d_loc : location;
  d_message : string;
}

val make :
  ?severity:severity ->
  ?scope:string ->
  ?path:string ->
  design:string ->
  rule:string ->
  string ->
  t
(** [make ~design ~rule msg] builds a diagnostic; [severity] defaults to
    [Warning]. *)

val location_to_string : location -> string
(** [design.scope @ path] with absent parts omitted. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[rule] design.scope @ path: message]. *)

(** {1 Rule registry} *)

type rule_info = {
  ri_id : string;
  ri_category : string;
      (** analysis stage: [hlir], [rtl], [equiv] or [monitor] *)
  ri_severity : severity;  (** default severity when the rule fires *)
  ri_doc : string;  (** one-line description *)
}

val rules : rule_info list
(** Every stable rule id emitted anywhere in the repository, in display
    order (behavioural rules first, then RT-level, then equivalence).
    [hlcs_cli lint --list-rules] prints this table. *)

val rule_info : string -> rule_info option
val category_of_rule : string -> string option

(** {1 Configuration} *)

type config = {
  disabled_rules : string list;  (** rule ids silenced entirely *)
  min_severity : severity;  (** diagnostics below this are dropped *)
}

val default_config : config
(** Everything enabled, [min_severity = Info]. *)

val rule_enabled : config -> string -> bool
val filter : config -> t list -> t list

(** {1 Aggregation} *)

type counts = { n_errors : int; n_warnings : int; n_infos : int }

val count : t list -> counts

val pp_counts : Format.formatter -> counts -> unit
(** [N error(s), M warning(s), K info(s)]. *)

val exit_code : ?strict:bool -> t list -> int
(** [0] when clean; [1] on any [Error]; with [~strict:true], [1] on any
    [Warning] as well.  [Info] never affects the exit code. *)

(** {1 Rendering} *)

val render_text : ?header:string -> t list -> string
(** Sorted by severity (errors first), one line per diagnostic, followed
    by a [N error(s), M warning(s), K info(s)] summary line. *)

val to_json : ?name:string -> t list -> Hlcs_json.Json.t
(** A single JSON object
    [{"design": name?, "diagnostics": [...], "counts": {...}}]; every
    diagnostic carries [rule], [category], [severity], [design],
    [scope], [path] and [message] fields ([null] when absent; the
    category comes from the {{!rules} registry}, falling back to
    ["general"] for unregistered rules). *)

val json_members : t list -> (string * Hlcs_json.Json.t) list
(** The [diagnostics] (sorted) and [counts] members of {!to_json}, for
    reports that embed diagnostics in a larger object. *)
