# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test fmt goldens bench bench-json bench-file test-backends test-disks test-async test-async-stress smoke cli-smoke examples faults serve-smoke telemetry-smoke soak cluster perf-ab clean

all: build

build:
	dune build

# Tier-1 gate: build + full test suite (includes the golden I/O-cost diff).
test:
	dune build && dune runtest

# Formatting gate. dune-project enables formatting for dune files, which the
# container can always check; ocamlformat-based .ml formatting activates
# automatically if an .ocamlformat file is added and ocamlformat is installed.
fmt:
	dune build @fmt

# Regenerate the dune-gated goldens (costs, metrics exports, serve and
# telemetry transcripts) deterministically and bless the result. Run after
# any intentional change to I/O costs or reply shapes.
goldens:
	dune build @golden --auto-promote

bench:
	dune exec bench/main.exe

# Bounded small-geometry sweep of every bench section; writes the
# machine-readable BENCH_{table1,figures,ablations,timing}.json artifacts at
# the repo root and fails if any Table-1 measured/predicted ratio exceeds the
# blessed ceilings. CI runs this on every push.
bench-json:
	dune exec bench/main.exe -- --small --json \
	  --check-ratios test/golden/ratios.expected

# Same bounded sweep, but with every machine that doesn't pin its backend
# running on real disk blocks (EM_BACKEND steers Ctx.create's default).
# Counted I/Os — and therefore the ratio gate — are identical to the sim
# run; only wall-clock differs.  The timing section's async speedup gate
# pins its own file backend regardless of EM_BACKEND.
bench-file:
	EM_BACKEND=file dune exec bench/main.exe -- --small --json \
	  --check-ratios test/golden/ratios.expected

# Tier-1 suite re-run on multi-disk machines (the disks matrix).  Work must
# be D-invariant — identical outputs, I/Os and comparisons — so every gate,
# golden costs included, passes unchanged; only round counts compress.
test-disks:
	EM_DISKS=4 dune runtest --force
	EM_DISKS=8 dune runtest --force

# Tier-1 suite re-run on each non-default backend (the backend matrix).
test-backends:
	EM_BACKEND=file dune runtest --force
	EM_BACKEND=cached dune runtest --force
	EM_BACKEND=cached:file dune runtest --force

# Tier-1 suite re-run with asynchronous file I/O (the async matrix leg).
# Async moves wall-clock time, never work: outputs, counted I/Os, rounds,
# traces and every golden must be byte-identical, so the whole suite —
# golden cost diff included — passes unchanged with the domain pool on.
test-async:
	EM_ASYNC=1 EM_BACKEND=file dune runtest --force

# The async race battery on a long leash: the determinism matrix plus the
# qcheck stress property (interleaved reader/writer pipelines over a
# private pool with worker-side latency jitter) at 50 iterations.
test-async-stress:
	EM_ASYNC_STRESS_ITERS=50 dune exec test/test_main.exe -- test async

# Every end-to-end smoke in one go: the CLI surface, the examples, the fault
# runs and the four golden transcripts (serve, telemetry, soak, cluster).
# CI's main job runs this.
smoke: cli-smoke examples faults serve-smoke telemetry-smoke soak cluster

# Example smoke: run every example executable.  Each one verifies its
# results against the in-memory oracle and exits nonzero on a mismatch.
EXAMPLES = quickstart histogram load_balance sublinear exact_chunks

examples:
	dune build $(EXAMPLES:%=examples/%.exe)
	@set -e; for e in $(EXAMPLES); do \
	  ./_build/default/examples/$$e.exe > /dev/null \
	    || { echo "examples: $$e exited nonzero"; exit 1; }; \
	done
	@echo "examples: all $(words $(EXAMPLES)) examples ran."

# CLI smoke: `profile` in all three report formats (the json dump must
# parse) and `faults` on every algorithm of the table, `profile`'s --jsonl
# event stream (every line must parse as JSON), exit 124 for a flag the
# algorithm does not read, and exit 124 — a one-line usage error, not an
# uncaught exception — for each malformed machine flag or environment
# default, on `profile` and on `serve`.
EM_REPRO = ./_build/default/bin/em_repro.exe
CLI_SMOKE_JSONL = _build/cli-smoke.jsonl

cli-smoke:
	dune build bin/em_repro.exe
	@set -e; for algo in splitters partition multiselect "multipartition --sizes 2048,6144" \
	    quantiles "reduce --chunk 1024" sort; do \
	  $(EM_REPRO) profile $$algo -n 8192 > /dev/null; \
	  $(EM_REPRO) profile $$algo -n 8192 --format prom > /dev/null; \
	  $(EM_REPRO) profile $$algo -n 8192 --format json \
	    | python3 -c 'import json, sys; json.load(sys.stdin)'; \
	  $(EM_REPRO) faults $$algo -n 8192 > /dev/null; \
	done
	@$(EM_REPRO) profile partition -n 8192 -k 16 --disks 2 --jsonl $(CLI_SMOKE_JSONL) > /dev/null
	@python3 -c 'import json, sys; n = sum(1 for l in open(sys.argv[1]) if json.loads(l)); assert n > 0' \
	  $(CLI_SMOKE_JSONL)
	@set -e; for unread in "faults splitters -n 1000 --restartable --crash-every 100" \
	    "profile sort -n 1000 -k 16"; do \
	  s=0; $(EM_REPRO) $$unread > /dev/null 2>&1 || s=$$?; \
	  if [ $$s -ne 124 ]; then \
	    echo "cli-smoke: 'em_repro $$unread' exited $$s, want 124 (a flag it does not read)"; exit 1; \
	  fi; \
	done
	@set -e; usage_error() { \
	  for sub in "profile sort -n 1000" "serve -n 1000"; do \
	    s=0; env $$1 $(EM_REPRO) $$sub $$2 < /dev/null > /dev/null 2> $(CLI_SMOKE_JSONL).err || s=$$?; \
	    if [ $$s -ne 124 ] || [ $$(wc -l < $(CLI_SMOKE_JSONL).err) -ne 1 ]; then \
	      echo "cli-smoke: '$$1 em_repro $$sub $$2' exited $$s, want 124 with a one-line message"; \
	      cat $(CLI_SMOKE_JSONL).err; exit 1; \
	    fi; \
	  done; \
	}; \
	usage_error "" "--disks 0"; usage_error "" "--block 0"; usage_error "" "--mem 10"; \
	usage_error EM_DISKS=abc ""; usage_error EM_BACKEND=bogus ""
	@echo "cli-smoke: profile formats, faults, JSONL stream and usage errors as expected."

# Fault-injection smoke: one recoverable run per algorithm family (three
# for multi-selection: -k 12 is one base case, -k 64 > m runs the general
# case, which sorts 20 000 elements in one merge pass at the default
# machine and distributes them by counting at M=512), plus a crash-restart
# run.  Each exits non-zero on an unexpected failure (exit 2:
# verification, exit 3: unrecovered typed fault).
faults:
	dune exec bin/em_repro.exe -- faults sort -n 20000 --fault-p 0.01 \
	  --fault-kinds transient-read,transient-write,bit-corruption,torn-write --verify-writes
	dune exec bin/em_repro.exe -- faults multiselect -n 20000 -k 12 --fault-p 0.02
	dune exec bin/em_repro.exe -- faults multiselect -n 20000 -k 64 --fault-p 0.02
	dune exec bin/em_repro.exe -- faults multiselect -n 20000 -k 64 --mem 512 --block 16 --fault-p 0.02
	dune exec bin/em_repro.exe -- faults splitters -n 20000 -k 16 -a 128 --fault-seed 7
	dune exec bin/em_repro.exe -- faults sort -n 20000 --restartable --crash-every 800

# Serve-mode smoke: the fixed query script through `em_repro serve` on a
# pinned machine (sim backend, D = 1, fixed seed), diffed against the NDJSON
# golden after emptying the "wall":{...} objects (the only wall-clock
# compartment).  The pipeline lives in test/golden/dune under the @golden
# alias, so `dune runtest` runs it too; `make goldens` re-blesses it.
serve-smoke:
	dune build @test/golden/serve-golden
	@echo "serve-smoke: transcript matches the golden."

# Telemetry smoke: the same pinned session's --telemetry frame stream,
# normalised the same way and diffed against its golden (also under
# @golden).
telemetry-smoke:
	dune build @test/golden/telemetry-golden
	@echo "telemetry-smoke: frame stream matches the golden."

# Chaos-soak smoke: a seeded adversarial query stream on a pinned small
# machine with 2 scheduled kill/restore cycles, diffed against a golden
# transcript (every number is a simulated cost, so the report is
# byte-deterministic).  The binary itself enforces the soak gate: exit 2 if
# the restored session's answers diverge from the crash-free oracle's, 3 if
# total I/Os exceed the k-crash overhead bound.  Regenerate after an
# intentional cost change with:
#   dune exec bin/em_repro.exe -- soak -n 20000 --queries 40 --kills 2 \
#     --mem 4096 --block 64 --backend sim --disks 1 --seed 42 \
#     > test/golden/soak.expected
# --flight-dir leaves one post-mortem JSON per scheduled kill (stderr-only
# notices, so the golden stdout transcript is unchanged); CI uploads them.
soak:
	dune exec bin/em_repro.exe -- soak -n 20000 --queries 40 --kills 2 \
	  --mem 4096 --block 64 --backend sim --disks 1 --seed 42 \
	  --flight-dir flight-artifacts \
	  | diff test/golden/soak.expected -
	@echo "soak: transcript matches the golden (answers + k-crash bound hold)."

# Cluster smoke: the same sharded partition on P=1 and P=4 machines, diffed
# as one transcript against a golden.  Every number is a simulated cost
# (counted I/Os, comparisons, communication rounds/words), so the output is
# byte-deterministic; the P=1 half shows an empty communication ledger and
# the binary itself exits 2 if either run's merged output diverges from the
# sorted oracle — the "shards change communication, never work" gate in its
# smallest form.  Regenerate after an intentional cost change with:
#   ( dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
#       --shards 1 --mem 1024 --block 32 --seed 42 ; \
#     dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
#       --shards 4 --mem 1024 --block 32 --seed 42 ) \
#     > test/golden/cluster.expected
cluster:
	( dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
	    --shards 1 --mem 1024 --block 32 --seed 42 ; \
	  dune exec bin/em_repro.exe -- cluster partition -n 4096 -k 8 \
	    --shards 4 --mem 1024 --block 32 --seed 42 ) \
	| diff test/golden/cluster.expected -
	@echo "cluster: transcript matches the golden (P=1 and P=4 agree)."

# Wall-clock A/B of the working tree against PARENT (any git revision):
# PAIRS alternating pairs of untraced `perf.exe` runs of each workload in
# WORKLOAD (one name, or a space-separated list run one after the other),
# SECONDS each (BENCHMARK.json's run length by default), swapping which side
# runs first every pair, with pair i on input seed SEED + 1000 i (a run's
# reps use seeds S, S+1, ...).  Prints each pair's throughput, setup_s and
# first_op_ms and how many pairs the change won on throughput, per workload,
# then `perf.exe compare` (medians,
# quartiles, PASS/FAIL against BENCHMARK.json bounds, one section per
# workload) over the result lines collected in
# _build/perf-ab/{parent,change}.jsonl.  PARENT is unpacked with
# `git archive` and built under _build/perf-ab/parent; nothing is written
# outside _build/.
PARENT ?= HEAD
WORKLOAD ?= batch-sim
PAIRS ?= 10
SECONDS ?= 20
SEED ?= 1

perf-ab:
	@set -e; ab=$(CURDIR)/_build/perf-ab; rm -rf $$ab; mkdir -p $$ab/parent; \
	git archive $(PARENT) | tar -x -C $$ab/parent; \
	dune build --root $$ab/parent --no-print-directory --display quiet bench/perf/perf.exe; \
	dune build --display quiet bench/perf/perf.exe; \
	run() { \
	  (cd $$2 && ./_build/default/bench/perf/perf.exe --workload $$w --seed $$3 \
	     --seconds $(SECONDS) --trace 0 --out-dir $$ab/out-$$1 > /dev/null) \
	    || { echo "perf-ab: $$1 run failed ($$w, seed $$3)"; exit 1; }; \
	  cat $$ab/out-$$1/$$w-seed$$3-trace0.json >> $$ab/$$1.jsonl; \
	}; \
	met() { sed -n "$${2}s/.*\"$$3\":{\"value\":\([^,]*\),.*/\1/p" $$ab/$$1.jsonl; }; \
	both() { awk "BEGIN { printf \"$$2 parent %.4g change %.4g\", $$(met parent $$1 $$2), $$(met change $$1 $$2) }"; }; \
	line=0; \
	for w in $(WORKLOAD); do \
	  won=0; i=1; \
	  while [ $$i -le $(PAIRS) ]; do \
	    s=$$(( $(SEED) + 1000 * i )); line=$$((line + 1)); \
	    if [ $$(( i % 2 )) -eq 1 ]; then run parent $$ab/parent $$s; run change $(CURDIR) $$s; \
	    else run change $(CURDIR) $$s; run parent $$ab/parent $$s; fi; \
	    p=$$(met parent $$line throughput); c=$$(met change $$line throughput); \
	    if awk "BEGIN { exit !($$c > $$p) }"; then won=$$((won + 1)); fi; \
	    echo "pair $$i (seed $$s): throughput parent $$p change $$c; $$(both $$line setup_s); $$(both $$line first_op_ms)"; \
	    i=$$((i + 1)); \
	  done; \
	  echo "change won $$won of $(PAIRS) pairs on $$w throughput"; \
	done; \
	./_build/default/bench/perf/perf.exe compare $$ab/parent.jsonl $$ab/change.jsonl || true

clean:
	dune clean
