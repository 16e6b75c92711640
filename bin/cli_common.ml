(* Flags shared by the hlcs_cli subcommands, factored so that --format,
   --deterministic, --jobs and --seed parse identically everywhere, plus
   the error-reporting evaluator that names the failing subcommand. *)

open Cmdliner
module Policy = Hlcs_osss.Policy
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target
module Run_config = Hlcs_interface.Run_config

(* a flag held to the range the config and job decoders enforce: out of
   range is a usage error (exit 124), like a bad --config *)
let ranged base check =
  let parse s =
    Result.bind (Arg.conv_parser base s) (fun v ->
        Result.map_error (fun e -> `Msg e) (check v))
  in
  Arg.conv (parse, Arg.conv_printer base)

let ranged_int field range = ranged Arg.int (Run_config.in_range field range)

let seed =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"N" ~doc:"Stimuli random seed.")

let count =
  Arg.(
    value
    & opt (ranged_int "count" Hlcs.Job.count_range) 12
    & info [ "count" ] ~docv:"N" ~doc:"Number of random bus requests to generate.")

let mem_bytes =
  Arg.(
    value
    & opt (ranged_int "mem_bytes" Run_config.mem_bytes_range) 1024
    & info [ "mem-bytes" ] ~docv:"BYTES"
        ~doc:"Size of the target memory window (32 to 2^30 - 1).")

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (fcfs|priority|rr)" s))
  in
  Arg.conv (parse, Policy.pp)

let policy =
  Arg.(
    value & opt policy_conv Policy.Fcfs
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Arbitration policy of the interface object: fcfs, priority or rr.")

let engine =
  Arg.(
    value
    & opt
        (enum
           [ ("settle", `Settle); ("levelized", `Levelized); ("compiled", `Compiled) ])
        `Levelized
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "RTL evaluation engine: levelized (default, the dirty-cone \
           interpreter), compiled (code-generated native plugin, cached on \
           disk; falls back to levelized with a warning when no native \
           toolchain is available) or settle (the legacy whole-network \
           reference).")

let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

let deterministic =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Omit wall-clock figures, leaving only deterministic output (identical \
           for a fixed seed regardless of host or --jobs).")

let jobs =
  Arg.(
    value
    & opt (some (ranged_int "jobs" Hlcs.Job.positive_range)) None
    & info [ "jobs" ] ~docv:"J"
        ~doc:
          "Size of the domain pool (default: the runtime's recommended domain \
           count; 1 = run sequentially in the calling domain).")

let retry_every =
  Arg.(
    value & opt (some int) None
    & info [ "retry-every" ] ~docv:"K" ~doc:"Make the target Retry every K-th transaction.")

let wait_states =
  Arg.(
    value & opt int 0
    & info [ "wait-states" ] ~docv:"N" ~doc:"Target wait states per data phase.")

let devsel_latency =
  Arg.(
    value
    & opt (ranged_int "devsel_latency" Run_config.devsel_latency_range) 1
    & info [ "devsel-latency" ] ~docv:"N" ~doc:"Target DEVSEL# latency in cycles (>= 1).")

let target_term =
  let make retry_every wait_states devsel_latency =
    { Pci_target.default_config with retry_every; wait_states; devsel_latency }
  in
  Term.(const make $ retry_every $ wait_states $ devsel_latency)

let script_term =
  let make seed count mem_bytes =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed ~count ~base:0 ~size_bytes:mem_bytes ())
  in
  Term.(const make $ seed $ count $ mem_bytes)

(* Cmdliner reports parse errors as "hlcs_cli: ...", whichever subcommand
   they came from.  Capturing the error channel lets us re-attribute the
   message to the subcommand actually named on the command line, so
   "unknown option" errors say where the option was rejected. *)
let eval_group info cmds =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let code = Cmd.eval ~err (Cmd.group info cmds) in
  Format.pp_print_flush err ();
  let msg = Buffer.contents buf in
  let msg =
    let prog = Cmd.name (Cmd.group info cmds) in
    if msg = "" || Array.length Sys.argv < 2 then msg
    else
      let sub = Sys.argv.(1) in
      if List.exists (fun c -> Cmd.name c = sub) cmds then
        String.concat "\n"
          (List.map
             (fun line ->
               let prefix = prog ^ ":" in
               if String.length line >= String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix
               then
                 prog ^ " " ^ sub ^ ":"
                 ^ String.sub line (String.length prefix)
                     (String.length line - String.length prefix)
               else line)
             (String.split_on_char '\n' msg))
      else msg
  in
  prerr_string msg;
  code
