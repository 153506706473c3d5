# Convenience wrappers around dune; see bench/README.md for the
# benchmark suite.

.PHONY: all build test bench bench-smoke chaos chaos-net service batch durability fabric migration loadgen check reproduce loc clean

all: build

# Everything a pre-merge run needs: formatting gate (dune files; see
# dune-project), full build, and the test suites — `dune runtest`
# already builds every smoke alias (chaos, chaos-net, bench, service,
# batch, durability, fabric, migration, loadgen).
check:
	dune build @fmt
	dune build
	dune runtest

# Regenerates BENCH_service.json and BENCH_loadgen.json in a scratch
# directory and diffs them against the committed files: every
# checked-in service and loadgen figure must come back byte for byte.
# Several minutes of host time, so not part of runtest.
reproduce:
	dune build bench/main.exe
	set -e; d=$$(mktemp -d); \
	(cd $$d && $(CURDIR)/_build/default/bench/main.exe service batch recovery fabric migration loadgen --json > stdout.txt); \
	diff BENCH_service.json $$d/BENCH_service.json; \
	diff BENCH_loadgen.json $$d/BENCH_loadgen.json; \
	rm -rf $$d; echo "BENCH_service.json and BENCH_loadgen.json reproduce"

# Lines of program code (lib, bin and bench sources; tests excluded):
# the total the ROADMAP win conditions are stated in, then one count
# per library under lib/.
loc:
	@echo "total $$(cat lib/*/*.ml lib/*/*.mli bin/*.ml bench/*.ml | wc -l)"
	@for d in lib/*/; do echo "$$d $$(cat $$d*.ml $$d*.mli | wc -l)"; done

build:
	dune build

test:
	dune runtest

# Full microbenchmark run; writes BENCH_sim.json at the repo root.
bench:
	dune exec bench/main.exe -- micro

# Tiny-parameter smoke run of the perf plumbing (also part of
# `dune runtest` via the bench-smoke alias).
bench-smoke:
	dune build @bench-smoke

# Seeded fault-injection runs with invariant checking (also part of
# `dune runtest` via the chaos-smoke alias), plus the mid-migration
# chaos scenarios.  Replay any seed with
#   dune exec bin/amoeba.exe -- chaos --seed N
#   dune exec bin/amoeba.exe -- migration-chaos --seed N
chaos:
	dune build @chaos-smoke
	dune build @migration-smoke

# Invariant-checked runs under persistent adversarial link conditions
# (also part of `dune runtest` via the chaos-net-smoke alias).  Replay
# with e.g.
#   dune exec bin/amoeba.exe -- chaos --seed N --net adversarial
chaos-net:
	dune build @chaos-net-smoke

# Fixed-seed sharded-service workloads with per-shard invariant checks,
# including sequencer- and follower-crash runs (also part of
# `dune runtest` via the service-smoke alias).  Replay with e.g.
#   dune exec bin/amoeba.exe -- workload --shards 4 --seed 11
service:
	dune build @service-smoke

# Batched/pipelined workloads — one healthy, one crashing the
# sequencer mid-batch-stream — with per-shard invariant checks (also
# part of `dune runtest` via the batch-smoke alias).  The full
# batch-size x pipeline-depth x wire sweep is
#   dune exec bench/main.exe -- batch
batch:
	dune build @batch-smoke

# Durable-mode runs (also part of `dune runtest` via the
# durability-smoke alias): healthy durable chaos, seeded and explicit
# whole-cluster power cycles on clean and adversarial nets, and a
# service workload that loses every host mid-run under
# fsync-per-commit.  Replay with e.g.
#   dune exec bin/amoeba.exe -- chaos --seed N --disk ssd
#   dune exec bin/amoeba.exe -- workload --disk ssd --fsync commit --power-cycle
durability:
	dune build @durability-smoke

# Switched-fabric runs (also part of `dune runtest` via the
# fabric-smoke alias): the service workload and invariant-checked
# chaos on `--net switch:*` topologies instead of the shared wire.
# The full shard x topology sweep at 100+ hosts is
#   dune exec bench/main.exe -- fabric
fabric:
	dune build @fabric-smoke

# Live-migration smoke (also part of `dune runtest` via the
# migration-smoke alias): invariant-checked mid-migration chaos —
# source-sequencer crash, destination crash (rollback), whole-cluster
# power cycle inside the transfer window — plus `--migrate` and
# `--rebalance` workload runs.  The 120-schedule swarm lives in
# test/test_migration.ml (part of `dune runtest`).  Replay with e.g.
#   dune exec bin/amoeba.exe -- migration-chaos --seed N --power-cycle
migration:
	dune build @migration-smoke

# Loadgen smoke (also part of `dune runtest` via the loadgen-smoke
# alias): the open-loop YCSB-style generator, a fixed-rate trial and a
# bounded SLO saturation search, plus the tiny bench sweep that writes
# and schema-checks BENCH_loadgen.json.  The full knee sweep is
#   dune exec bench/main.exe -- loadgen --json
loadgen:
	dune build @loadgen-smoke

clean:
	dune clean
