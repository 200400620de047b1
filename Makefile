DUNE ?= dune

.PHONY: all build test paper bench faults lint ltl por par resilience slice zone clean fmt

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# Reproduce the paper: every model-checking table and figure
# EXPERIMENTS.md records (hbverify all), then the simulation sections at
# their default seeds — rate, detection delay, false deactivations under
# loss, the burst-loss ablation, the joining latency, the
# failure-detector QoS sweeps and the acceleration-depth ablation.  The
# output is deterministic, and tier-1 pins it (test/paper.expected).
paper:
	$(DUNE) build bin/hbverify.exe bin/hbsim.exe
	$(DUNE) exec bin/hbverify.exe -- all
	@echo
	@echo "=== ICDCS'98 quantitative claims (simulation) ==="
	@echo
	$(DUNE) exec bin/hbsim.exe -- rate
	$(DUNE) exec bin/hbsim.exe -- detection
	$(DUNE) exec bin/hbsim.exe -- reliability
	$(DUNE) exec bin/hbsim.exe -- bursty
	$(DUNE) exec bin/hbsim.exe -- join --tmin 5 --tmax 10
	$(DUNE) exec bin/hbsim.exe -- fd
	$(DUNE) exec bin/hbsim.exe -- fd --probes 3
	$(DUNE) exec bin/hbsim.exe -- sweep

# The benchmark (perfbench/, workloads named in BENCHMARK.json): each
# workload for 20 s, seed 1, records appended to .bench_results/.
bench:
	for w in paper pa dense liveness; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 || exit 1; \
	done

# The fault-injection, static-analysis, liveness, partial-order-reduction,
# slicing and zone-engine gates are aliases for tier-1 (dune runtest),
# which runs every check they made:
#  - faults: `hbfault smoke` (fixed variants survive the default
#    adversary, unfixed ones are refuted at a table F point with a shrunk
#    schedule, the JSON report reproduces), pinned in test/gates.expected;
#  - lint: `hblint --strict` (every shipped model lints clean; warnings
#    gate too) and its JSON report, pinned in test/gates.expected;
#  - ltl: `hbltl smoke` (fixed models hold R1-R3 under weak fairness,
#    unfixed ones are refuted on R2/R3 with a lasso, both emptiness
#    engines agree) and one verdict's JSON, pinned in test/gates.expected;
#  - por: the `por` suite (reduced and full explorations agree, reduced
#    counterexamples replay, reduced successors and statistics equal the
#    string-set reference) and the six-variant smoke (verdicts identical
#    full vs reduced, one variant at least halved), its text in
#    test/gates.expected and its JSON in test/cli.expected;
#  - slice: the `slice` suite (sliced and full explorations agree,
#    sliced counterexamples replay) and the six-variant smoke, its text
#    in test/gates.expected and its JSON in test/cli.expected;
#  - zone: the `zone` and `lubounds` suites (DBM units and the closure
#    oracle, discrete-vs-zone verdict parity with guided replay, FC
#    verdicts, location-LU units), the six-variant zone smoke and the FC
#    zone counts as text and JSON, the FISCHER n = 7, expanding n = 2
#    counterexample and equality-store pins, the .xta front end's spot
#    check (test/cli.expected), and the drift check that the shipped
#    examples/fc/*.xta are exactly what the Fc registry prints.
# An exact pin also checks that a report reproduces byte-identically.
faults lint ltl por slice zone: test

# Parallel-counter gate: the qcheck parity harness for the
# work-stealing counter (counts and completeness flags equal to
# Mc.Explore.count across stores x domain counts, also under a
# max_states bound, and transitions equal to those of the sequential
# space), the store units (exact shards spread over their buckets,
# hash-compaction, bitstate coverage estimates, collision injection),
# then two large counts of dynamic at tmax 40 (498 876 states), each of
# which must print the same report at -j 1 and -j 2: one on the exact
# store, one under hash compaction (its fingerprints are fixed, and
# 498 876 states at 62 bits collide with probability about 3e-8).
par:
	$(DUNE) exec test/main.exe -- test pexplore
	$(DUNE) exec test/main.exe -- test store
	$(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 40 --count -j 1 > _build/hbpar-1.out
	$(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 40 --count -j 2 > _build/hbpar-2.out
	cmp _build/hbpar-1.out _build/hbpar-2.out
	$(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 40 --store hashcompact -j 1 > _build/hbpar-hc-1.out
	$(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 40 --store hashcompact -j 2 > _build/hbpar-hc-2.out
	cmp _build/hbpar-hc-1.out _build/hbpar-hc-2.out

# Resilience gate: the budget/checkpoint/degradation/quarantine suite
# (qcheck suspend/resume round trips, store-ladder degradation and
# raising successors quarantined at 4 domains in the counter), then
# two live interrupt
# smokes — SIGINT a running hbexplore mid-exploration, and a PA
# liveness check (hbltl --pa, SCC engine) mid-product-build; each must
# report a partial result (exit 4) plus a checkpoint, and resume to a
# byte-identical result.  Each instance's clean run takes at least ten
# times the 0.4 s the interrupt waits, so a faster host still stops it
# mid-run: the TA one (dynamic at tmax 100, 2 551 439 states) 5.2 s
# and 1.1 GB, the PA one (static n=2 at (5,5), 79 379 states and
# 1 196 057 in the product) 5.6-6.6 s and 670 MB, in the dev profile
# on a 2-core host.  The smaller points they replace (tmax 80; (3,3))
# came down to 2.9-3.2 s and 1.6-2.1 s once product graphs were stored
# as rows.  The PA run's partial report must name the interrupt.
resilience:
	$(DUNE) exec test/main.exe -- test resilience
	$(DUNE) build bin/hbexplore.exe
	rm -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 100 \
	  > _build/hbres-clean.out
	timeout --preserve-status -s INT 0.4 \
	  _build/default/bin/hbexplore.exe stats -v dynamic --tmax 100 \
	  --checkpoint _build/hbres.ck > _build/hbres-int.out 2>/dev/null; \
	  test $$? -eq 4
	test -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 100 \
	  --resume _build/hbres.ck > _build/hbres-resumed.out 2>/dev/null
	cmp _build/hbres-clean.out _build/hbres-resumed.out
	$(DUNE) build bin/hbltl.exe
	rm -f _build/hbres-pa.ck
	timeout 300 _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 5 \
	  --tmax 5 --pa --engine scc --json > _build/hbres-pa-clean.out
	timeout --preserve-status -s INT 0.4 \
	  _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 5 --tmax 5 \
	  --pa --engine scc --json --checkpoint _build/hbres-pa.ck \
	  > _build/hbres-pa-int.out 2>/dev/null; \
	  test $$? -eq 4
	grep -q '"reason":"interrupted"' _build/hbres-pa-int.out
	test -f _build/hbres-pa.ck
	timeout 300 _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 5 \
	  --tmax 5 --pa --engine scc --json --resume _build/hbres-pa.ck \
	  > _build/hbres-pa-resumed.out 2>/dev/null
	cmp _build/hbres-pa-clean.out _build/hbres-pa-resumed.out

clean:
	$(DUNE) clean

fmt:
	$(DUNE) fmt
