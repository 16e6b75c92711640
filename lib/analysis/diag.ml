module Json = Hlcs_json.Json

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0
let compare_severity a b = compare (severity_rank a) (severity_rank b)

type location = {
  loc_design : string;
  loc_scope : string option;
  loc_path : string option;
}

type t = {
  d_rule : string;
  d_severity : severity;
  d_loc : location;
  d_message : string;
}

let make ?(severity = Warning) ?scope ?path ~design ~rule message =
  {
    d_rule = rule;
    d_severity = severity;
    d_loc = { loc_design = design; loc_scope = scope; loc_path = path };
    d_message = message;
  }

let location_to_string loc =
  let base =
    match loc.loc_scope with
    | None -> loc.loc_design
    | Some s -> loc.loc_design ^ "." ^ s
  in
  match loc.loc_path with None -> base | Some p -> base ^ " @ " ^ p

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s"
    (severity_to_string d.d_severity)
    d.d_rule
    (location_to_string d.d_loc)
    d.d_message

(* ------------------------------------------------------------------ *)
(* rule registry                                                       *)

type rule_info = {
  ri_id : string;
  ri_category : string;
  ri_severity : severity;
  ri_doc : string;
}

(* Every stable rule id any analysis in this repository can emit, with
   the analysis stage it belongs to and its default severity.  The CLI's
   [lint --list-rules] renders this table, and the JSON renderer reports
   the category alongside each diagnostic. *)
let rules =
  [
    (* behavioural (HLIR) level *)
    { ri_id = "typecheck"; ri_category = "hlir"; ri_severity = Error;
      ri_doc = "expression, port or method typing violation in the behavioural design" };
    { ri_id = "guard-deadlock"; ri_category = "hlir"; ri_severity = Error;
      ri_doc = "a cycle of processes blocked on each other's guarded rendezvous" };
    { ri_id = "arbitration-starvation"; ri_category = "hlir"; ri_severity = Warning;
      ri_doc = "static-priority arbitration can starve a contending low-priority client" };
    { ri_id = "output-stability"; ri_category = "hlir"; ri_severity = Warning;
      ri_doc = "an output written on some but not all paths of a reaction" };
    { ri_id = "dead-code"; ri_category = "hlir"; ri_severity = Warning;
      ri_doc = "statement unreachable under every guard valuation" };
    { ri_id = "unread-field"; ri_category = "hlir"; ri_severity = Warning;
      ri_doc = "shared-object field written but never read" };
    { ri_id = "port-contention"; ri_category = "hlir"; ri_severity = Error;
      ri_doc = "two processes drive the same port in the same reaction" };
    { ri_id = "unused-local"; ri_category = "hlir"; ri_severity = Warning;
      ri_doc = "process-local variable never referenced" };
    (* RT level *)
    { ri_id = "rtl-multi-driver"; ri_category = "rtl"; ri_severity = Error;
      ri_doc = "net with more than one driver; later drivers conflict" };
    { ri_id = "rtl-comb-loop"; ri_category = "rtl"; ri_severity = Error;
      ri_doc = "combinational cycle through the listed wires" };
    { ri_id = "rtl-width"; ri_category = "rtl"; ri_severity = Error;
      ri_doc = "operand or port width mismatch in a netlist expression" };
    { ri_id = "rtl-x-source"; ri_category = "rtl"; ri_severity = Error;
      ri_doc = "net that can carry X: unassigned wire, undriven output or undeclared input" };
    { ri_id = "rtl-latch"; ri_category = "rtl"; ri_severity = Info;
      ri_doc = "wire read before its driving assignment in netlist order (latch-style)" };
    { ri_id = "rtl-unused"; ri_category = "rtl"; ri_severity = Info;
      ri_doc = "wire that drives nothing (dead logic)" };
    (* equivalence checking *)
    { ri_id = "equiv-proved"; ri_category = "equiv"; ri_severity = Info;
      ri_doc = "all output and next-state functions proved equivalent (UNSAT miters)" };
    { ri_id = "equiv-mismatch"; ri_category = "equiv"; ri_severity = Error;
      ri_doc = "two netlists disagree on a function; a counterexample stimulus is attached" };
    { ri_id = "equiv-incomparable"; ri_category = "equiv"; ri_severity = Error;
      ri_doc = "equivalence query over differing input/output/register footprints" };
    (* temporal-property monitors *)
    { ri_id = "monitor-violation"; ri_category = "monitor"; ri_severity = Error;
      ri_doc = "a temporal property (liveness/bounded response) failed during simulation; the violation cycle and a witness prefix are attached" };
  ]

let rule_info id = List.find_opt (fun r -> r.ri_id = id) rules
let category_of_rule id = match rule_info id with Some r -> Some r.ri_category | None -> None

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)

type config = { disabled_rules : string list; min_severity : severity }

let default_config = { disabled_rules = []; min_severity = Info }
let rule_enabled config rule = not (List.mem rule config.disabled_rules)

let filter config diags =
  List.filter
    (fun d ->
      rule_enabled config d.d_rule
      && compare_severity d.d_severity config.min_severity >= 0)
    diags

(* ------------------------------------------------------------------ *)
(* aggregation                                                         *)

type counts = { n_errors : int; n_warnings : int; n_infos : int }

let count diags =
  List.fold_left
    (fun c d ->
      match d.d_severity with
      | Error -> { c with n_errors = c.n_errors + 1 }
      | Warning -> { c with n_warnings = c.n_warnings + 1 }
      | Info -> { c with n_infos = c.n_infos + 1 })
    { n_errors = 0; n_warnings = 0; n_infos = 0 }
    diags

let exit_code ?(strict = false) diags =
  let c = count diags in
  if c.n_errors > 0 then 1 else if strict && c.n_warnings > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)

let sorted diags =
  (* errors first; otherwise keep emission order (stable sort) *)
  List.stable_sort (fun a b -> compare_severity b.d_severity a.d_severity) diags

let summary_line c =
  Printf.sprintf "%d error(s), %d warning(s), %d info(s)" c.n_errors c.n_warnings
    c.n_infos

let pp_counts ppf c = Format.pp_print_string ppf (summary_line c)

let render_text ?header diags =
  let buf = Buffer.create 256 in
  (match header with
  | Some h ->
      Buffer.add_string buf h;
      Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "%a@." pp d))
    (sorted diags);
  Buffer.add_string buf (summary_line (count diags));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let json_members diags =
  let str s = Json.String s and opt = function None -> Json.Null | Some s -> Json.String s in
  let diag d =
    Json.Obj
      [
        ("rule", str d.d_rule);
        ("category", str (Option.value (category_of_rule d.d_rule) ~default:"general"));
        ("severity", str (severity_to_string d.d_severity));
        ("design", str d.d_loc.loc_design);
        ("scope", opt d.d_loc.loc_scope);
        ("path", opt d.d_loc.loc_path);
        ("message", str d.d_message);
      ]
  in
  let c = count diags in
  [
    ("diagnostics", Json.List (List.map diag (sorted diags)));
    ( "counts",
      Json.Obj
        [
          ("errors", Json.Int c.n_errors);
          ("warnings", Json.Int c.n_warnings);
          ("infos", Json.Int c.n_infos);
        ] );
  ]

let to_json ?name diags =
  let design = match name with None -> [] | Some n -> [ ("design", Json.String n) ] in
  Json.Obj (design @ json_members diags)
