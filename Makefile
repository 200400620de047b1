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
# output is deterministic.
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

# Deterministic fault-injection campaign gate: the fixed variants must
# survive the default adversary with zero violations, the unfixed ones
# must be refuted (with a shrunk minimal schedule) at a table F point,
# and the JSON report must reproduce byte-identically.
faults:
	$(DUNE) exec bin/hbfault.exe -- smoke

# Static-analysis gate: every shipped model must lint clean under
# --strict (warnings gate too; infos do not), and the JSON report must
# reproduce byte-identically across two runs.
lint:
	$(DUNE) exec bin/hblint.exe -- --strict
	$(DUNE) exec bin/hblint.exe -- --json > _build/hblint-1.json
	$(DUNE) exec bin/hblint.exe -- --json > _build/hblint-2.json
	cmp _build/hblint-1.json _build/hblint-2.json

# Liveness gate: on every variant at its race point the fixed model
# satisfies the R1-R3 liveness formulations under weak fairness, the
# unfixed model is refuted on R2/R3 with a concrete lasso, both
# emptiness engines agree, and the JSON report must reproduce
# byte-identically across two runs.
ltl:
	$(DUNE) exec bin/hbltl.exe -- smoke
	$(DUNE) exec bin/hbltl.exe -- check R2 -v binary --fixed --json > _build/hbltl-1.json
	$(DUNE) exec bin/hbltl.exe -- check R2 -v binary --fixed --json > _build/hbltl-2.json
	cmp _build/hbltl-1.json _build/hbltl-2.json

# Partial-order-reduction gate: the qcheck parity harness (reduced and
# full explorations agree on monitor and LTL verdicts, reduced
# counterexamples replay, reduced LTS weak-trace equivalent), then the
# six-variant smoke: every requirement verdict identical full vs
# reduced vs reduced at 4 domains, at least one variant at least
# halved, JSON byte-identical.
por:
	$(DUNE) exec test/main.exe -- test por
	$(DUNE) exec bin/hbverify.exe -- pa-smoke
	$(DUNE) exec bin/hbverify.exe -- pa-smoke --json > _build/hbpor-1.json
	$(DUNE) exec bin/hbverify.exe -- pa-smoke --json > _build/hbpor-2.json
	cmp _build/hbpor-1.json _build/hbpor-2.json

# Parallel-engine gate: the qcheck parity harness for the
# work-stealing engine (spaces byte-identical to Mc.Explore across
# engines x stores x domain counts, goal and truncation verdicts in
# parity), the store-compression units (hash-compaction, bitstate
# coverage estimates, collision injection), and the POR soundness
# suite including the parallel cycle proviso.
par:
	$(DUNE) exec test/main.exe -- test pexplore
	$(DUNE) exec test/main.exe -- test store
	$(DUNE) exec test/main.exe -- test por

# Resilience gate: the budget/checkpoint/degradation/quarantine suite
# (qcheck suspend/resume round trips, store-ladder degradation, raising
# successors quarantined at 4 domains), then two live interrupt
# smokes — SIGINT a running hbexplore mid-exploration, and a PA
# liveness check (hbltl --pa, SCC engine) mid-product-build; each must
# report a partial result (exit 4) plus a checkpoint, and resume to a
# byte-identical result.  The PA instance's clean run takes ~4 s
# (static n=2 at (3,3), 30 495 states), ten times the 0.4 s the
# interrupt waits, and its partial report must name the interrupt.
resilience:
	$(DUNE) exec test/main.exe -- test resilience
	$(DUNE) build bin/hbexplore.exe
	rm -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  > _build/hbres-clean.out
	timeout --preserve-status -s INT 0.4 \
	  _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  --checkpoint _build/hbres.ck > _build/hbres-int.out 2>/dev/null; \
	  test $$? -eq 4
	test -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  --resume _build/hbres.ck > _build/hbres-resumed.out 2>/dev/null
	cmp _build/hbres-clean.out _build/hbres-resumed.out
	$(DUNE) build bin/hbltl.exe
	rm -f _build/hbres-pa.ck
	timeout 300 _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 3 \
	  --tmax 3 --pa --engine scc --json > _build/hbres-pa-clean.out
	timeout --preserve-status -s INT 0.4 \
	  _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 3 --tmax 3 \
	  --pa --engine scc --json --checkpoint _build/hbres-pa.ck \
	  > _build/hbres-pa-int.out 2>/dev/null; \
	  test $$? -eq 4
	grep -q '"reason":"interrupted"' _build/hbres-pa-int.out
	test -f _build/hbres-pa.ck
	timeout 300 _build/default/bin/hbltl.exe check R1 -v static -n 2 --tmin 3 \
	  --tmax 3 --pa --engine scc --json --resume _build/hbres-pa.ck \
	  > _build/hbres-pa-resumed.out 2>/dev/null
	cmp _build/hbres-pa-clean.out _build/hbres-pa-resumed.out

# Slicing gate: the qcheck parity harness (sliced and full timed-automata
# explorations agree on every safety and LTL verdict, sliced
# counterexamples replay in the full model via the certificate), then
# the six-variant slice smoke: verdict parity per requirement, at least
# one variant's space at least halved, at least one sliced
# counterexample replayed, JSON byte-identical across two runs.
slice:
	$(DUNE) exec test/main.exe -- test slice
	$(DUNE) exec bin/hbverify.exe -- slice-smoke
	$(DUNE) exec bin/hbverify.exe -- slice-smoke --json > _build/hbslice-1.json
	$(DUNE) exec bin/hbverify.exe -- slice-smoke --json > _build/hbslice-2.json
	cmp _build/hbslice-1.json _build/hbslice-2.json

# Zone-engine gate: the qcheck discrete-vs-zone agreement harness (DBM
# units, random-network verdict parity, guided replay of zone
# counterexamples), the location-LU analysis suite (backward-fixpoint
# units, every heartbeat clock constraint closed, verdict parity
# discrete vs location LU), then the six-variant zone smoke (R1-R3
# verdict parity discrete vs dense-time, subsumption active, JSON
# byte-identical across two runs), the FC-suite zone counts (verdicts
# match the specs, byte-identical JSON), a Fontana-Cleaveland spot
# check through the .xta front end, and a drift check that the shipped
# examples/fc/*.xta are exactly what the Fc registry prints.
zone:
	$(DUNE) exec test/main.exe -- test zone
	$(DUNE) exec test/main.exe -- test lubounds
	$(DUNE) exec bin/hbverify.exe -- zone-smoke
	$(DUNE) exec bin/hbverify.exe -- zone-smoke --json > _build/hbzone-1.json
	$(DUNE) exec bin/hbverify.exe -- zone-smoke --json > _build/hbzone-2.json
	cmp _build/hbzone-1.json _build/hbzone-2.json
	$(DUNE) exec bin/hbexplore.exe -- fc --zones
	$(DUNE) exec bin/hbexplore.exe -- fc --zones --json > _build/hbfczones-1.json
	$(DUNE) exec bin/hbexplore.exe -- fc --zones --json > _build/hbfczones-2.json
	cmp _build/hbfczones-1.json _build/hbfczones-2.json
	$(DUNE) exec bin/hbverify.exe -- xta examples/fc/fischer.xta --forbid P1.CS,P2.CS
	for m in fischer fischer-broken csma fddi grc leader; do \
	  $(DUNE) exec bin/hbexplore.exe -- fc $$m > _build/fc-$$m.xta && \
	  cmp _build/fc-$$m.xta examples/fc/$$m.xta || exit 1; \
	done

clean:
	$(DUNE) clean

fmt:
	$(DUNE) fmt
