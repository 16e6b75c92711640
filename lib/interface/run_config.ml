module Time = Hlcs_engine.Time
module Policy = Hlcs_osss.Policy
module Synthesize = Hlcs_synth.Synthesize
module Synth_cache = Hlcs_synth.Synth_cache
module Pci_target = Hlcs_pci.Pci_target
module Fault = Hlcs_fault.Fault

type t = {
  rc_mem_bytes : int;
  rc_mem_seed : int;
  rc_policy : Policy.t option;
  rc_target : Pci_target.config;
  rc_synth_options : Synthesize.options option;
  rc_vcd_prefix : string option;
  rc_max_time : Time.t;
  rc_profile : bool;
  rc_cache : Synth_cache.t option;
  rc_faults : Fault.plan;
  rc_equiv : bool;
  rc_monitors : Hlcs_verify.Monitor.spec list;
}

(* One process-wide synthesis cache backs every default configuration:
   sweeps, fault campaigns and benches re-synthesise the same design many
   times per invocation, and the cache (mutex-guarded, so safe under the
   batch runtime's domains) makes every run after the first reuse the
   report.  [with_cache] still swaps in a private cache and
   [without_cache] forces cold synthesis per run. *)
let shared_cache = Synth_cache.create ()

let default =
  {
    rc_mem_bytes = 1024;
    rc_mem_seed = 42;
    rc_policy = None;
    rc_target = Pci_target.default_config;
    rc_synth_options = None;
    rc_vcd_prefix = None;
    rc_max_time = Time.us 100_000;
    rc_profile = false;
    rc_cache = Some shared_cache;
    rc_faults = Fault.empty;
    rc_equiv = false;
    rc_monitors = [];
  }

let with_mem_bytes rc_mem_bytes t = { t with rc_mem_bytes }
let with_mem_seed rc_mem_seed t = { t with rc_mem_seed }
let with_policy p t = { t with rc_policy = Some p }
let with_target rc_target t = { t with rc_target }
let with_synth_options o t = { t with rc_synth_options = Some o }
let with_vcd_prefix p t = { t with rc_vcd_prefix = Some p }
let with_max_time rc_max_time t = { t with rc_max_time }
let with_profile rc_profile t = { t with rc_profile }
let with_cache c t = { t with rc_cache = Some c }
let without_cache t = { t with rc_cache = None }
let with_faults rc_faults t = { t with rc_faults }
let with_equiv rc_equiv t = { t with rc_equiv }
let with_monitors rc_monitors t = { t with rc_monitors }

let vcd_file t suffix =
  Option.map (fun p -> p ^ "_" ^ suffix ^ ".vcd") t.rc_vcd_prefix

let synthesize t design =
  match t.rc_cache with
  | Some c -> Synth_cache.synthesize c ?options:t.rc_synth_options design
  | None -> Synthesize.synthesize ?options:t.rc_synth_options design

(* ------------------------------------------------------------------ *)
(* Versioned JSON codec.

   The serializable surface is the whole record, with the two
   unrepresentable fields mapped to declarative forms:

   - [rc_cache] (a live handle) becomes ["shared" | "none" | "private" |
     "disk"]: the process-wide shared cache, no cache, a fresh private
     memory cache, or the process-wide disk-tier cache (the directory
     named by HLCS_SYNTH_CACHE, defaulting to ~/.cache/hlcs/synth);
   - [rc_monitors] (compiled to automata closures when armed) becomes the
     list of stock spec names from {!Monitor_specs}; only registry specs
     survive a round trip, and unknown names are decode errors. *)

module Json = Hlcs_json.Json

let codec_version = 1

(* the process-wide disk-tier cache behind [cache: "disk"]: one handle,
   so every disk-configured job in a process shares the memory tier too *)
let disk_cache =
  lazy
    (Synth_cache.create
       ~disk:(`Dir (Hlcs_store.Store.default_dir ~env_var:Synth_cache.env_var "synth"))
       ())

let cache_form t =
  match t.rc_cache with
  | None -> "none"
  | Some c ->
      if c == shared_cache then "shared"
      else if Lazy.is_val disk_cache && c == Lazy.force disk_cache then "disk"
      else if Synth_cache.disk_dir c <> None then "disk"
      else "private"

let cache_of_form = function
  | "none" -> Ok None
  | "shared" -> Ok (Some shared_cache)
  | "private" -> Ok (Some (Synth_cache.create ~disk:`Memory ()))
  | "disk" -> Ok (Some (Lazy.force disk_cache))
  | other -> Error (Printf.sprintf "unknown cache form %S" other)

(* the one RTL engine's name: every config states it, and any other name
   (a retired engine) is a decode error *)
let rtl_engine = "levelized"

let json_opt_int = function None -> Json.Null | Some i -> Json.Int i

let target_to_json (tgt : Pci_target.config) =
  Json.Obj
    [
      ("base_address", Json.Int tgt.Pci_target.base_address);
      ("devsel_latency", Json.Int tgt.Pci_target.devsel_latency);
      ("wait_states", Json.Int tgt.Pci_target.wait_states);
      ("retry_every", json_opt_int tgt.Pci_target.retry_every);
      ("disconnect_after", json_opt_int tgt.Pci_target.disconnect_after);
      ("ignore_every", json_opt_int tgt.Pci_target.ignore_every);
    ]

let ( let* ) = Result.bind

(* the stimulus generator needs one 8-word burst of window and draws word
   slots with [Random.int], whose bound is below 2^30; the PCI target
   claims a transaction one cycle after FRAME# at the earliest *)
let mem_bytes_range = (32, (1 lsl 30) - 1)
let devsel_latency_range = (1, max_int)

(* the PCI target reads a negative wait or disconnect count and a period
   below 1 as "off", so out-of-range timing would run and pass unperturbed *)
let cycles_range = (0, max_int)
let every_range = (1, max_int)

(* an FCFS age counter is a register of this width, and a 62-bit one
   cannot wrap in any run this simulator can finish while it still fits
   the engine's unboxed nets; the bounded-call guard needs a positive
   timeout, and the watchdog a positive limit, or the run simulates
   nothing and passes *)
let age_width_range = (1, 62)
let positive_time_range = (1, max_int)

let in_range field (lo, hi) v =
  if v >= lo && v <= hi then Ok v
  else if hi = max_int then Error (Printf.sprintf "%s %d is out of range (>= %d)" field v lo)
  else Error (Printf.sprintf "%s %d is out of range (%d..%d)" field v lo hi)

let int_in field range j =
  let* v = Json.int_field field j in
  in_range field range v

let opt_int_in field range j =
  Json.opt_field field j (fun v -> Result.bind (Json.to_int v) (in_range field range))

let target_of_json j =
  let* base_address = Json.int_field "base_address" j in
  let* devsel_latency = int_in "devsel_latency" devsel_latency_range j in
  let* wait_states = int_in "wait_states" cycles_range j in
  let* retry_every = opt_int_in "retry_every" every_range j in
  let* disconnect_after = opt_int_in "disconnect_after" cycles_range j in
  let* ignore_every = opt_int_in "ignore_every" every_range j in
  Ok
    {
      Pci_target.base_address;
      devsel_latency;
      wait_states;
      retry_every;
      disconnect_after;
      ignore_every;
    }

let glitch_kind_to_string = function
  | Fault.Stuck_zero -> "stuck0"
  | Fault.Stuck_one -> "stuck1"
  | Fault.Stuck_x -> "stuckx"

let glitch_kind_of_string = function
  | "stuck0" -> Ok Fault.Stuck_zero
  | "stuck1" -> Ok Fault.Stuck_one
  | "stuckx" -> Ok Fault.Stuck_x
  | other -> Error (Printf.sprintf "unknown glitch kind %S" other)

let faults_to_json (p : Fault.plan) =
  Json.Obj
    [
      ("seed", Json.Int p.Fault.fp_seed);
      ( "glitches",
        Json.List
          (List.map
             (fun (g : Fault.glitch) ->
               Json.Obj
                 [
                   ("net", Json.String g.Fault.gl_net);
                   ("kind", Json.String (glitch_kind_to_string g.Fault.gl_kind));
                   ("from_cycle", Json.Int g.Fault.gl_from_cycle);
                   ("cycles", Json.Int g.Fault.gl_cycles);
                 ])
             p.Fault.fp_glitches) );
      ("jitter", Json.Bool p.Fault.fp_jitter);
      ( "target",
        Json.Obj
          [
            ("extra_wait_states", Json.Int p.Fault.fp_target.Fault.tf_extra_wait_states);
            ("retry_every", json_opt_int p.Fault.fp_target.Fault.tf_retry_every);
            ("disconnect_after", json_opt_int p.Fault.fp_target.Fault.tf_disconnect_after);
            ("abort_every", json_opt_int p.Fault.fp_target.Fault.tf_abort_every);
          ] );
      ( "starvation",
        match p.Fault.fp_starvation with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("from_cycle", Json.Int s.Fault.sv_from_cycle);
                ("cycles", Json.Int s.Fault.sv_cycles);
              ] );
      ( "stall",
        match p.Fault.fp_stall with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("command", Json.Int s.Fault.st_command);
                ("cycles", Json.Int s.Fault.st_cycles);
              ] );
      ( "guard",
        match p.Fault.fp_guard with
        | None -> Json.Null
        | Some g ->
            Json.Obj
              [
                ("timeout_ps", Json.Int (Time.to_ps g.Fault.gp_timeout));
                ("retries", Json.Int g.Fault.gp_retries);
                ("backoff_ps", Json.Int (Time.to_ps g.Fault.gp_backoff));
              ] );
    ]

let faults_of_json j =
  let* fp_seed = Json.int_field "seed" j in
  let* glitches = Json.list_field "glitches" j in
  let* fp_glitches =
    List.fold_left
      (fun acc g ->
        let* acc = acc in
        let* gl_net = Json.string_field "net" g in
        let* kind = Json.string_field "kind" g in
        let* gl_kind = glitch_kind_of_string kind in
        let* gl_from_cycle = Json.int_field "from_cycle" g in
        let* gl_cycles = Json.int_field "cycles" g in
        Ok ({ Fault.gl_net; gl_kind; gl_from_cycle; gl_cycles } :: acc))
      (Ok []) glitches
    |> Result.map List.rev
  in
  let* fp_jitter = Json.bool_field "jitter" j in
  let* tgt =
    match Json.member "target" j with
    | None -> Error "missing member \"target\""
    | Some tj ->
        let* tf_extra_wait_states = int_in "extra_wait_states" cycles_range tj in
        let* tf_retry_every = opt_int_in "retry_every" every_range tj in
        let* tf_disconnect_after = opt_int_in "disconnect_after" cycles_range tj in
        let* tf_abort_every = opt_int_in "abort_every" every_range tj in
        Ok { Fault.tf_extra_wait_states; tf_retry_every; tf_disconnect_after; tf_abort_every }
  in
  let* fp_starvation =
    Json.opt_field "starvation" j (fun sj ->
        let* sv_from_cycle = Json.int_field "from_cycle" sj in
        let* sv_cycles = Json.int_field "cycles" sj in
        Ok { Fault.sv_from_cycle; sv_cycles })
  in
  let* fp_stall =
    Json.opt_field "stall" j (fun sj ->
        let* st_command = Json.int_field "command" sj in
        let* st_cycles = Json.int_field "cycles" sj in
        Ok { Fault.st_command; st_cycles })
  in
  let* fp_guard =
    Json.opt_field "guard" j (fun gj ->
        let* timeout = int_in "timeout_ps" positive_time_range gj in
        let* gp_retries = Json.int_field "retries" gj in
        let* backoff = Json.int_field "backoff_ps" gj in
        Ok
          {
            Fault.gp_timeout = Time.ps timeout;
            gp_retries;
            gp_backoff = Time.ps backoff;
          })
  in
  Ok { Fault.fp_seed; fp_glitches; fp_jitter; fp_target = tgt; fp_starvation; fp_stall; fp_guard }

let to_json_value t =
  Json.Obj
    [
      ("config_version", Json.Int codec_version);
      ("mem_bytes", Json.Int t.rc_mem_bytes);
      ("mem_seed", Json.Int t.rc_mem_seed);
      ( "policy",
        match t.rc_policy with
        | None -> Json.Null
        | Some p -> Json.String (Policy.to_string p) );
      ("target", target_to_json t.rc_target);
      ( "synth_options",
        match t.rc_synth_options with
        | None -> Json.Null
        | Some o ->
            Json.Obj
              [
                ("chaining", Json.Bool o.Synthesize.chaining);
                ("age_width", Json.Int o.Synthesize.age_width);
                ("optimize", Json.Bool o.Synthesize.optimize);
              ] );
      ( "vcd_prefix",
        match t.rc_vcd_prefix with None -> Json.Null | Some p -> Json.String p );
      ("max_time_ps", Json.Int (Time.to_ps t.rc_max_time));
      ("profile", Json.Bool t.rc_profile);
      ("cache", Json.String (cache_form t));
      ("faults", faults_to_json t.rc_faults);
      ("rtl_engine", Json.String rtl_engine);
      ("equiv", Json.Bool t.rc_equiv);
      ( "monitors",
        Json.List
          (List.map
             (fun (s : Hlcs_verify.Monitor.spec) ->
               Json.String s.Hlcs_verify.Monitor.sp_name)
             t.rc_monitors) );
    ]

let to_json t = Json.to_string (to_json_value t)

let of_json j =
  let* v = Json.int_field "config_version" j in
  if v <> codec_version then
    Error (Printf.sprintf "unsupported config_version %d (this build speaks %d)" v codec_version)
  else
    let* rc_mem_bytes = int_in "mem_bytes" mem_bytes_range j in
    let* rc_mem_seed = Json.int_field "mem_seed" j in
    let* rc_policy =
      Json.opt_field "policy" j (fun pj ->
          let* s = Json.to_string_val pj in
          match Policy.of_string s with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "unknown policy %S" s))
    in
    let* rc_target =
      match Json.member "target" j with
      | None -> Error "missing member \"target\""
      | Some tj -> target_of_json tj
    in
    let* rc_synth_options =
      Json.opt_field "synth_options" j (fun oj ->
          let* chaining = Json.bool_field "chaining" oj in
          let* age_width = int_in "age_width" age_width_range oj in
          let* optimize = Json.bool_field "optimize" oj in
          Ok { Synthesize.chaining; age_width; optimize })
    in
    let* rc_vcd_prefix = Json.opt_field "vcd_prefix" j Json.to_string_val in
    let* max_time = int_in "max_time_ps" positive_time_range j in
    let* rc_profile = Json.bool_field "profile" j in
    let* cache_form = Json.string_field "cache" j in
    let* rc_cache = cache_of_form cache_form in
    let* rc_faults =
      match Json.member "faults" j with
      | None -> Error "missing member \"faults\""
      | Some fj -> faults_of_json fj
    in
    let* engine = Json.string_field "rtl_engine" j in
    let* () =
      if engine = rtl_engine then Ok ()
      else Error (Printf.sprintf "unknown rtl engine %S" engine)
    in
    let* rc_equiv = Json.bool_field "equiv" j in
    let* monitor_names = Json.list_field "monitors" j in
    let* rc_monitors =
      List.fold_left
        (fun acc mj ->
          let* acc = acc in
          let* name = Json.to_string_val mj in
          match Monitor_specs.find name with
          | Some spec -> Ok (spec :: acc)
          | None ->
              Error
                (Printf.sprintf "unknown monitor %S (stock: %s)" name
                   (String.concat ", " Monitor_specs.names)))
        (Ok []) monitor_names
      |> Result.map List.rev
    in
    Ok
      {
        rc_mem_bytes;
        rc_mem_seed;
        rc_policy;
        rc_target;
        rc_synth_options;
        rc_vcd_prefix;
        rc_max_time = Time.ps max_time;
        rc_profile;
        rc_cache;
        rc_faults;
        rc_equiv;
        rc_monitors;
      }

let parse s =
  match Json.parse s with
  | Error e -> Error ("config: " ^ e)
  | Ok j -> of_json j

(* merge the plan's target faults onto the configured target: the plan
   perturbs whatever environment the run was going to use *)
let effective_target t =
  let f = t.rc_faults.Fault.fp_target in
  let tgt = t.rc_target in
  {
    tgt with
    Pci_target.wait_states = tgt.Pci_target.wait_states + f.Fault.tf_extra_wait_states;
    retry_every =
      (match f.Fault.tf_retry_every with
      | Some _ as r -> r
      | None -> tgt.Pci_target.retry_every);
    disconnect_after =
      (match f.Fault.tf_disconnect_after with
      | Some _ as d -> d
      | None -> tgt.Pci_target.disconnect_after);
    ignore_every =
      (match f.Fault.tf_abort_every with
      | Some _ as a -> a
      | None -> tgt.Pci_target.ignore_every);
  }

(* every [with_*] setter in one call, for callers holding optional values *)
let make ?mem_bytes ?mem_seed ?policy ?target ?synth_options ?vcd_prefix
    ?max_time ?profile ?cache ?faults ?equiv ?monitors () =
  let t = default in
  let t = match mem_bytes with Some v -> with_mem_bytes v t | None -> t in
  let t = match mem_seed with Some v -> with_mem_seed v t | None -> t in
  let t = match policy with Some v -> with_policy v t | None -> t in
  let t = match target with Some v -> with_target v t | None -> t in
  let t = match synth_options with Some v -> with_synth_options v t | None -> t in
  let t = match vcd_prefix with Some v -> with_vcd_prefix v t | None -> t in
  let t = match max_time with Some v -> with_max_time v t | None -> t in
  let t = match profile with Some v -> with_profile v t | None -> t in
  let t = match cache with Some v -> with_cache v t | None -> t in
  let t = match faults with Some v -> with_faults v t | None -> t in
  let t = match equiv with Some v -> with_equiv v t | None -> t in
  let t = match monitors with Some v -> with_monitors v t | None -> t in
  t
