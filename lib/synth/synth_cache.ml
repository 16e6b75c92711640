(* Content-hashed synthesis memoisation: two promise tables of
   [Hlcs_store.Store], each with an optional disk tier (the scheme is
   described once, in store.mli).

   - the {e report} tier keys the complete [Synthesize.report] by an MD5
     over (option fields, canonical serialisation of the HLIR design) —
     a byte-identical design under identical options replays without any
     work at all;
   - the {e fragment} tier keys each synthesis unit's netlist fragment by
     its content signature ([Synthesize.plan_unit.u_signature]).  A
     report miss plans the design, resolves every unit against the
     fragment tier, resynthesises only the units whose signatures are
     new, and links.  Editing one process of an N-unit design therefore
     costs one unit synthesis plus a link; a sweep over N design
     variants shares every unchanged unit across jobs and — through the
     disk tier — across daemon restarts.

   The HLIR AST is pure data (no closures, no mutation after
   construction), so [Marshal] with [No_sharing] is a canonical encoding:
   structurally equal designs serialise to identical bytes regardless of
   how much substructure they happen to share in memory.

   The statistics are the tables' answers by provenance: a report
   answered from memory (a wait on a synthesis in flight included) is a
   hit, one loaded from disk a disk hit, one built a miss; a unit
   answered from memory or disk is reused, one built is rebuilt. *)

module Store = Hlcs_store.Store

type stats = {
  hits : int;
  misses : int;
  disk_hits : int;
  units_total : int;
  units_reused : int;
  units_rebuilt : int;
}

type t = {
  reports : Synthesize.report Store.table;  (* design key *)
  units : Synthesize.fragment Store.table;  (* unit signature *)
  dir : string option;
}

(* bump when the entry layout (or anything reachable from
   [Synthesize.report] / [Synthesize.fragment]) changes shape, or when
   the same unit now synthesises to a different netlist (4: one-hot
   FSMs; 5: gated call handshakes; 6: FCFS age-order wires): stale
   fingerprints are pruned, not unmarshalled *)
let format_version = "6"

let env_var = "HLCS_SYNTH_CACHE"

let create ?(disk = `Env) () =
  let dir =
    match disk with
    | `Memory -> None
    | `Dir d -> Some d
    | `Env -> Store.env_dir env_var
  in
  let fingerprint = Store.fingerprint [ "sy" ^ format_version ] in
  let tier prefix = Option.bind dir (Store.open_dir ~prefix ~fingerprint) in
  let reports = tier "hlcs_sy_" and units = tier "hlcs_syu_" in
  {
    reports = Store.table ?disk:reports ();
    units = Store.table ?disk:units ();
    dir = Option.map Store.dir reports;
  }

let disk_dir t = t.dir

let key ?(options = Synthesize.default_options) design =
  let opts =
    Printf.sprintf "chaining=%b;age_width=%d;optimize=%b\x00" options.Synthesize.chaining
      options.Synthesize.age_width options.Synthesize.optimize
  in
  Store.key (opts ^ Marshal.to_string design [ Marshal.No_sharing ])

let synthesize t ?options design =
  fst
    (Store.get t.reports (key ?options design) (fun () ->
         (* the dirty-cone path: plan, resolve each unit against the
            fragment tier, relink — only units with unseen signatures
            pay for synthesis *)
         let pl = Synthesize.plan ?options design in
         let resolve (pu : Synthesize.plan_unit) =
           fst
             (Store.get t.units pu.Synthesize.u_signature (fun () ->
                  Synthesize.synthesize_unit pl.Synthesize.pl_options
                    pu.Synthesize.u_decl))
         in
         Synthesize.link_plan pl (List.map resolve pl.Synthesize.pl_units)))

let stats t =
  let r = Store.counts t.reports and u = Store.counts t.units in
  {
    hits = r.Store.memo;
    misses = r.Store.built;
    disk_hits = r.Store.disk;
    units_total = u.Store.memo + u.Store.disk + u.Store.built;
    units_reused = u.Store.memo + u.Store.disk;
    units_rebuilt = u.Store.built;
  }

let size t = Store.length t.reports
