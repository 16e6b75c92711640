# Convenience targets; dune is the real build system.

.PHONY: all build test lint check ci bench bench-smoke sweep-smoke fault-smoke equiv-smoke swarm-smoke serve-smoke synth-smoke verilog-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# CI gate: shipped library elements must carry no analysis warnings at
# either the HLIR or the netlist level (same as `dune build @lint`).
lint:
	dune build @lint

check: build test lint

# Everything a PR must pass, including one pass over each bench series
# (tiny iteration counts) so the perf code paths are compiled and exercised
# even when nobody is looking at the numbers.  The bench harness times
# what perfbench/ does not: the flow's stages, the daemon and swarm
# campaigns are perfbench's layers (`dune runtest` runs its smoke).
ci: build lint test bench-smoke sweep-smoke fault-smoke equiv-smoke swarm-smoke serve-smoke synth-smoke verilog-smoke

bench-smoke:
	dune exec bench/main.exe -- --smoke

# A small 2-domain batch sweep: exercises the domain pool, the shared
# synthesis cache and the merged observability snapshot end to end.
sweep-smoke:
	dune exec bin/hlcs_cli.exe -- sweep --smoke --jobs 2

# A seeded fault campaign, one cycle through every fault family on 2
# domains.  Campaign seed 1 is the empirically fully-survivable smoke
# campaign: any non-zero exit means either an injection regressed or a
# verdict flipped to inconsistent.
fault-smoke:
	dune exec bin/hlcs_cli.exe -- fault --smoke --jobs 2 --fault-seed 1 --deterministic

# A coverage-guided swarm campaign at CI size (budget 16, batch 4, two
# workers), guided and blind: byte-compares the reports with their goldens
# and between worker counts, and validates the JSON against the strict
# campaign schema (same as `dune build @swarm`).
swarm-smoke:
	dune build @swarm

# The serve-protocol contract (same as `dune build @serve`): the fig3
# flow job replayed through the daemon's stdio session at two pool
# widths (event streams identical modulo wall clock, result payload
# byte-equal to `hlcs_cli flow`), a five-job batch at pool widths 1, 2
# and 4 (identical event streams), the malformed-request, queue-overflow
# and refused-job transcripts golden-diffed, and the two-process
# disk-cache proof — a second daemon process must answer the same job
# from $HLCS_SYNTH_CACHE without re-synthesising.
serve-smoke:
	dune build @serve

# The two-process incremental-synthesis proof (same as `dune build
# @synth`): a cold daemon synthesises the fig3 flow job from scratch
# into a private $HLCS_SYNTH_CACHE, a second daemon process runs a
# one-process edit of the design (different stimulus seed) and must
# reuse the clean netlist fragments from disk — synth_units_reused > 0,
# exactly one unit rebuilt, never a full resynthesis.
synth-smoke:
	dune build @synth

# Cross-check the emitted Verilog against icarus (same as `dune build
# @verilog`): compile `hlcs_cli emit fig3 --lang verilog` plus a
# generated stimulus testbench under iverilog, and diff the sampled
# output-port waveforms against our own simulator's VCD.  Skips (does
# not fail) on hosts without iverilog/vvp on PATH.
verilog-smoke:
	@if command -v iverilog >/dev/null 2>&1 && command -v vvp >/dev/null 2>&1; then \
	  dune build @verilog; \
	else \
	  echo "verilog-smoke: iverilog not found, skipped"; \
	fi

# SAT-prove the fig3 (pci) and sram demo designs equivalent pre/post
# optimisation — every miter expected UNSAT — and validate the JSON
# proof reports against the strict schema (same as `dune build @equiv`).
equiv-smoke:
	dune build @equiv

# The bench harness's wall-clock series (BENCH_pr*.json hold earlier
# runs): min-of-N, one JSON document per run.  The benchmark of record is
# perfbench/ (`sh perfbench/run.sh`, see BENCHMARK.json).
bench:
	dune exec bench/main.exe -- --json bench.json --label local --repeat 15

clean:
	dune clean
