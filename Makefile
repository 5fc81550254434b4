# Developer/CI entry points. `make ci` is the gate: vet, build, full test
# suite, race detector on the concurrency-stressed packages, then a
# quick-scale parallel run of the experiment suite as a runner smoke test.

GO ?= go

# Packages with real goroutine concurrency (lock-free packet pool, the
# weak-memory checker, the parallel experiment runner, the shared trace
# emitter, the live collector engine and its atomic bit/card layers) or
# that drive it.
RACE_PKGS = ./internal/runner ./internal/workpack ./internal/weakmem ./internal/core ./internal/gctrace ./internal/live ./internal/bitvec ./internal/cardtable ./internal/server

.PHONY: ci vet build test race smoke trace-smoke stress-smoke chaos-smoke pacing-smoke balance-smoke balance-bench serve-smoke serve-bench overload-smoke overload-bench distill-smoke distill-bench bench fmt

ci: vet build test race smoke trace-smoke stress-smoke chaos-smoke pacing-smoke balance-smoke serve-smoke overload-smoke distill-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short $(RACE_PKGS)

# Exercise the parallel harness end to end: a few experiments at quick
# scale with 4 workers, emitting the JSON telemetry to a throwaway file.
smoke:
	$(GO) run ./cmd/gcbench -exp fig1,javac,packets -scale quick -j 4 -json /tmp/gcbench-smoke.json
	@rm -f /tmp/gcbench-smoke.json

# Exercise the telemetry pipeline end to end: run one experiment with the
# metrics and trace sinks attached, then validate both files with gcstats
# (the trace check parses the file the way Perfetto would).
trace-smoke:
	$(GO) run ./cmd/gcbench -exp fig1 -scale quick -j 4 \
		-metrics /tmp/gcbench-smoke.jsonl -trace /tmp/gcbench-smoke-trace.json
	$(GO) run ./cmd/gcstats metrics -metrics /tmp/gcbench-smoke.jsonl -run wh=8
	$(GO) run ./cmd/gcstats check -trace /tmp/gcbench-smoke-trace.json
	@rm -f /tmp/gcbench-smoke.jsonl /tmp/gcbench-smoke-trace.json

# Exercise the live engine end to end under the race detector: a short
# gcstress run on the real shared heap with both telemetry sinks, validated
# by gcstats. The STW oracle inside the engine fails the run (exit 1) if any
# cycle loses a live object.
stress-smoke:
	$(GO) run -race ./cmd/gcstress -duration 2s -packets 10 -packetcap 8 -roots 64 \
		-metrics /tmp/gcstress-smoke.jsonl -trace /tmp/gcstress-smoke-trace.json
	$(GO) run ./cmd/gcstats metrics -metrics /tmp/gcstress-smoke.jsonl
	$(GO) run ./cmd/gcstats check -trace /tmp/gcstress-smoke-trace.json
	@rm -f /tmp/gcstress-smoke.jsonl /tmp/gcstress-smoke-trace.json

# Exercise the fault-injection layer end to end under the race detector: one
# race-enabled gcstress run per fault class with fixed seeds. -require-faults
# makes each run fail unless its configured fault actually fired, the STW
# oracle fails it on any lost object, and -timeout backstops a hang with a
# goroutine dump (exit 2). The last run injects a total tracing wedge and
# asserts the termination watchdog aborts it with exit 2 instead of hanging.
CHAOS_RUN = $(GO) run -race ./cmd/gcstress -duration 1s -packets 12 -packetcap 8 -roots 48 \
	-chaos-seed 7 -require-faults -timeout 120s -wedge-timeout 30s

chaos-smoke:
	$(CHAOS_RUN) -chaos "pool.exhaust=1/3" -metrics /tmp/gcchaos-smoke.jsonl
	$(CHAOS_RUN) -chaos "pool.cas=1/3,jitter=1/16"
	$(CHAOS_RUN) -chaos "pool.deferstall=2:100us" -allocbatch 48
	$(CHAOS_RUN) -chaos "card.cleanstall=1/4:50us" -shape pointer
	$(CHAOS_RUN) -chaos "live.tracerstall=4:200us"
	$(CHAOS_RUN) -chaos "live.fencedelay=3:300us" -shape pointer
	$(CHAOS_RUN) -chaos "live.allocfail=1/2"
	$(CHAOS_RUN) -chaos "pool.localspill=1/2"
	$(CHAOS_RUN) -chaos "pool.stealmiss=1/2"
	$(CHAOS_RUN) -chaos "pool.refillstall=1/4:50us"
	$(CHAOS_RUN) -chaos "pool.exhaust=1/3" -localcache -1 -freeshards -1 -cardbuf -1
	$(GO) run ./cmd/gcstats metrics -metrics /tmp/gcchaos-smoke.jsonl
	@rm -f /tmp/gcchaos-smoke.jsonl
	@echo "chaos-smoke: verifying the watchdog aborts a wedged run..."
	@$(GO) build -race -o /tmp/gcstress-chaos ./cmd/gcstress
	@/tmp/gcstress-chaos -duration 60s -chaos "live.wedge=on" -chaos-seed 7 \
		-wedge-timeout 2s -timeout 120s >/tmp/gcchaos-wedge.out 2>&1; \
	status=$$?; rm -f /tmp/gcstress-chaos; \
	if [ $$status -ne 2 ]; then \
		echo "chaos-smoke: wedge run exited $$status, want 2"; cat /tmp/gcchaos-wedge.out; rm -f /tmp/gcchaos-wedge.out; exit 1; \
	fi; \
	grep -q "WEDGED in" /tmp/gcchaos-wedge.out || { echo "chaos-smoke: no wedge diagnosis in output"; cat /tmp/gcchaos-wedge.out; rm -f /tmp/gcchaos-wedge.out; exit 1; }; \
	rm -f /tmp/gcchaos-wedge.out; echo "chaos-smoke: watchdog ok"

# Exercise the Section 3 pacer end to end under the race detector: a paced
# gcstress run where cycles start via the kickoff formula and mutators repay
# allocation tax by draining work packets. -require-paced fails the run
# unless at least one paced increment happened and no allocation failed;
# gcstats must then show a non-trivial K trajectory from the emitted metrics.
pacing-smoke:
	$(GO) run -race ./cmd/gcstress -pacing -objects 65536 -kickoff-headroom 8192 \
		-duration 2s -seed 5 -require-paced -metrics /tmp/gcpacing-smoke.jsonl
	$(GO) run ./cmd/gcstats metrics -metrics /tmp/gcpacing-smoke.jsonl | tee /tmp/gcpacing-smoke.out
	@grep -q "K: " /tmp/gcpacing-smoke.out || { echo "pacing-smoke: no K trajectory in gcstats output"; exit 1; }
	@grep -q "kickoffs: " /tmp/gcpacing-smoke.out || { echo "pacing-smoke: no kickoff count in gcstats output"; exit 1; }
	@rm -f /tmp/gcpacing-smoke.jsonl /tmp/gcpacing-smoke.out

# Exercise the per-tracer work-flow accounting end to end, in two legs.
# Leg 1 puts the accounting itself under the race detector: a paced gcstress
# run at 8 tracers (plus a background tracer and mutator-tax workers) with
# both sinks attached; gcstats balance must report the skew and termination
# fields, and gcstats check must accept the per-worker trace tracks (proper
# nesting, one worker per track). Leg 2 is the hoard A/B gate on the regular
# binary — the race detector's ~10x slowdown would drown the
# microsecond-scale termination timing — three fixed seeds per arm cat'ed
# into one file, then gcstats check-hoard requires the pool.hoard runs to
# show strictly worse words-Gini AND strictly worse mean termination latency
# than the clean runs, while the engine's own STW oracle and quiescence
# identities still pass inside every run.
BALANCE_AB = -duration 1s -mutators 3 -tracers 4 -bg 0 -objects 8192 -roots 48 \
	-packets 32 -packetcap 8 -localcache -1 -timeout 120s

balance-smoke:
	$(GO) run -race ./cmd/gcstress -pacing -duration 1s -mutators 3 -tracers 8 -bg 1 \
		-objects 8192 -roots 48 -packets 32 -packetcap 8 -localcache -1 -seed 11 \
		-name paced8 -metrics /tmp/gcbalance-paced.jsonl -trace /tmp/gcbalance-paced.trace
	$(GO) run ./cmd/gcstats balance -metrics /tmp/gcbalance-paced.jsonl | tee /tmp/gcbalance-paced.out
	@grep -q "skew max/mean" /tmp/gcbalance-paced.out || { echo "balance-smoke: no skew field in -balance output"; exit 1; }
	@grep -q "termination:" /tmp/gcbalance-paced.out || { echo "balance-smoke: no termination field in -balance output"; exit 1; }
	$(GO) run ./cmd/gcstats check -trace /tmp/gcbalance-paced.trace
	@$(GO) build -o /tmp/gcstress-balance ./cmd/gcstress
	@rm -f /tmp/gcbalance-ab.jsonl
	@for s in 11 12 13; do \
		/tmp/gcstress-balance $(BALANCE_AB) -seed $$s -name clean$$s \
			-metrics /tmp/gcbalance-run.jsonl || exit 1; \
		cat /tmp/gcbalance-run.jsonl >> /tmp/gcbalance-ab.jsonl; \
		/tmp/gcstress-balance $(BALANCE_AB) -seed $$s -name hoard$$s \
			-chaos "pool.hoard=on:1ms" -chaos-seed 7 -require-faults \
			-metrics /tmp/gcbalance-run.jsonl || exit 1; \
		cat /tmp/gcbalance-run.jsonl >> /tmp/gcbalance-ab.jsonl; \
	done
	$(GO) run ./cmd/gcstats check-hoard -metrics /tmp/gcbalance-ab.jsonl
	@rm -f /tmp/gcbalance-paced.jsonl /tmp/gcbalance-paced.trace /tmp/gcbalance-paced.out \
		/tmp/gcbalance-run.jsonl /tmp/gcbalance-ab.jsonl /tmp/gcstress-balance

# Sweep tracer counts x local-tier on/off and reduce each cell to its balance
# quantities (skew, Gini, idle fraction, steal-hit rate, termination latency
# percentiles). One JSON object per cell lands in BENCH_balance.json.
balance-bench:
	@$(GO) build -o /tmp/gcstress-bb ./cmd/gcstress
	@$(GO) build -o /tmp/gcstats-bb ./cmd/gcstats
	@rm -f /tmp/gcbalance-bench.jsonl
	@for t in 4 8 16 32 64; do for tier in on off; do \
		lc=0; [ $$tier = off ] && lc=-1; \
		echo "balance-bench: tracers=$$t local-tier=$$tier"; \
		/tmp/gcstress-bb -duration 1s -mutators 3 -tracers $$t -bg 0 -objects 8192 \
			-roots 48 -packets 32 -packetcap 8 -localcache $$lc -seed 11 \
			-name "t=$$t/local=$$tier" -metrics /tmp/gcbalance-cell.jsonl >/dev/null || exit 1; \
		cat /tmp/gcbalance-cell.jsonl >> /tmp/gcbalance-bench.jsonl; \
	done; done
	/tmp/gcstats-bb balance -metrics /tmp/gcbalance-bench.jsonl -json > BENCH_balance.json
	@rm -f /tmp/gcbalance-cell.jsonl /tmp/gcbalance-bench.jsonl /tmp/gcstress-bb /tmp/gcstats-bb
	@echo "balance-bench: wrote BENCH_balance.json"

# Exercise the server workload end to end under the race detector: a short
# gcserve run (closed-loop clients with Zipfian skew and churn driving the
# sharded store on the live heap) that must complete real requests
# (-min-ops), keep the request accounting identity, and pass the per-cycle
# STW oracle; gcstats latency must then reduce the metrics to throughput,
# the latency tail and the pause correlation.
serve-smoke:
	$(GO) run -race ./cmd/gcserve -clients 16 -duration 2s -objects 32768 \
		-churn 300 -min-ops 1000 -metrics /tmp/gcserve-smoke.jsonl
	$(GO) run ./cmd/gcstats latency -metrics /tmp/gcserve-smoke.jsonl | tee /tmp/gcserve-smoke.out
	@grep -q "throughput: " /tmp/gcserve-smoke.out || { echo "serve-smoke: no throughput in -latency output"; exit 1; }
	@grep -q "p999 " /tmp/gcserve-smoke.out || { echo "serve-smoke: no p999 in -latency output"; exit 1; }
	@grep -q "lost objects 0" /tmp/gcserve-smoke.out || { echo "serve-smoke: oracle reported lost objects"; exit 1; }
	@rm -f /tmp/gcserve-smoke.jsonl /tmp/gcserve-smoke.out

# Client-scaling sweep: client counts x local-tier on/off, each cell reduced
# to throughput, latency tail, MMU and the pause-latency correlation. One
# JSON object per cell lands in BENCH_serve.json.
serve-bench:
	@$(GO) build -o /tmp/gcserve-sb ./cmd/gcserve
	@$(GO) build -o /tmp/gcstats-sb ./cmd/gcstats
	@rm -f /tmp/gcserve-bench.jsonl
	@for c in 32 64 128 256 512; do for tier in on off; do \
		lc=0; [ $$tier = off ] && lc=-1; \
		echo "serve-bench: clients=$$c local-tier=$$tier"; \
		/tmp/gcserve-sb -clients $$c -duration 2s -objects 65536 -seed 11 \
			-localcache $$lc -name "serve/c=$$c/local=$$tier" \
			-metrics /tmp/gcserve-cell.jsonl >/dev/null || exit 1; \
		cat /tmp/gcserve-cell.jsonl >> /tmp/gcserve-bench.jsonl; \
	done; done
	/tmp/gcstats-sb latency -metrics /tmp/gcserve-bench.jsonl -json > BENCH_serve.json
	@rm -f /tmp/gcserve-cell.jsonl /tmp/gcserve-bench.jsonl /tmp/gcserve-sb /tmp/gcstats-sb
	@echo "serve-bench: wrote BENCH_serve.json"

# Exercise the graceful-degradation ladder end to end under the race
# detector: a gcserve run at 2x offered load (live.overload doubles every
# client's allocation rate) with all three rungs armed — allocation
# backpressure, hair-trigger emergency escalation (any pressured cycle that
# cannot free the whole-heap floor escalates), and admission control at a
# 10% headroom watermark. -require-degraded fails the run unless load was
# actually shed AND an emergency collection actually ran, -require-faults
# fails it unless the amplifier fired, the STW oracle fails it on any lost
# object, and the watchdog must never trip. gcstats degradation must then
# reduce the metrics to the time-in-state ladder view.
OVERLOAD_LADDER = -ladder -bp-wait 2ms -emergency-min 16384 -emergency-after 1 \
	-admission -shed-watermark 0.10

overload-smoke:
	$(GO) run -race ./cmd/gcserve -clients 16 -duration 2s -objects 16384 \
		-churn 300 -min-ops 500 -seed 11 \
		-chaos "live.overload=on" -chaos-seed 7 -require-faults \
		$(OVERLOAD_LADDER) -require-degraded -timeout 120s \
		-metrics /tmp/gcoverload-smoke.jsonl
	$(GO) run ./cmd/gcstats degradation -metrics /tmp/gcoverload-smoke.jsonl | tee /tmp/gcoverload-smoke.out
	@grep -q "ladder on" /tmp/gcoverload-smoke.out || { echo "overload-smoke: -degradation does not show the ladder armed"; exit 1; }
	@grep -Eq "collections: [0-9]+ cycles, [1-9][0-9]* emergency" /tmp/gcoverload-smoke.out || { echo "overload-smoke: no emergency collections in -degradation output"; exit 1; }
	@grep -q "admission: shed " /tmp/gcoverload-smoke.out || { echo "overload-smoke: no sheds in -degradation output"; exit 1; }
	@grep -q "outcome: survived" /tmp/gcoverload-smoke.out || { echo "overload-smoke: run did not survive the overload"; exit 1; }
	@rm -f /tmp/gcoverload-smoke.jsonl /tmp/gcoverload-smoke.out

# Overload sweep: offered load 1x/1.5x/2x (the live.overload amplifier off,
# at 1/2, and always-on) crossed with ladder+admission on/off. Each cell
# reduces to the time-in-state fractions, stall percentiles, emergency and
# shed counts, and the survival verdict. The ladder-off overload cells are
# allowed to exit nonzero — unbounded allocation failure without the ladder
# is exactly what the sweep documents — but their metrics still land in the
# file. One JSON object per cell lands in BENCH_overload.json.
overload-bench:
	@$(GO) build -o /tmp/gcserve-ob ./cmd/gcserve
	@$(GO) build -o /tmp/gcstats-ob ./cmd/gcstats
	@rm -f /tmp/gcoverload-bench.jsonl
	@for load in 1x 1.5x 2x; do for ladder in on off; do \
		chaos=""; \
		[ $$load = 1.5x ] && chaos="-chaos live.overload=1/2 -chaos-seed 7"; \
		[ $$load = 2x ] && chaos="-chaos live.overload=on -chaos-seed 7"; \
		lflags=""; [ $$ladder = on ] && lflags="$(OVERLOAD_LADDER)"; \
		echo "overload-bench: load=$$load ladder=$$ladder"; \
		/tmp/gcserve-ob -clients 16 -duration 2s -objects 16384 -churn 300 -seed 11 \
			$$chaos $$lflags -name "overload/load=$$load/ladder=$$ladder" \
			-metrics /tmp/gcoverload-cell.jsonl >/dev/null 2>&1; \
		status=$$?; \
		if [ $$status -ne 0 ] && [ $$ladder = on ]; then \
			echo "overload-bench: ladder-on cell failed (exit $$status)"; exit 1; \
		fi; \
		cat /tmp/gcoverload-cell.jsonl >> /tmp/gcoverload-bench.jsonl; \
	done; done
	/tmp/gcstats-ob degradation -metrics /tmp/gcoverload-bench.jsonl -json > BENCH_overload.json
	@rm -f /tmp/gcoverload-cell.jsonl /tmp/gcoverload-bench.jsonl /tmp/gcserve-ob /tmp/gcstats-ob
	@echo "overload-bench: wrote BENCH_overload.json"

# Exercise the cost-distillation harness end to end: one paced gcserve run
# plus its collection-disabled baseline (arena sized from the real run's
# measured allocations), with the distilled record appended as JSON and
# reduced by gcstats pareto. The run itself exits 1 if the baseline is
# contaminated (collected or exhausted), so the smoke gates both the
# harness and the arena sizing.
distill-smoke:
	$(GO) run ./cmd/gcserve -clients 16 -duration 1s -objects 32768 -seed 11 \
		-pacing -min-ops 1000 -timeout 120s \
		-distill -distill-json /tmp/gcdistill-smoke.jsonl
	$(GO) run ./cmd/gcstats pareto -distill /tmp/gcdistill-smoke.jsonl | tee /tmp/gcdistill-smoke.out
	@grep -q "FRONTIER" /tmp/gcdistill-smoke.out || { echo "distill-smoke: no frontier cell in pareto output"; exit 1; }
	@rm -f /tmp/gcdistill-smoke.jsonl /tmp/gcdistill-smoke.out

# Distilled-cost sweep (Cai & Blackburn): formula K0 in {4,8,16} on the same
# server workload and seed. Every cell is a
# -distill pair — the measured run plus its collection-disabled ideal — and
# gcstats pareto reduces the cells to the Pareto curve of collector CPU
# overhead vs request p99, with the frontier-annotated records landing in
# BENCH_distill.json.
# The cell geometry (4 clients, 1+1 tracers) is deliberately lean: this
# container has one core, and an oversubscribed scheduler drowns the
# CPU-per-unit measurement in run-to-run noise. At this size the cells
# repeat within a couple of points.
DISTILL_CELL = -clients 4 -tracers 1 -bg 1 -duration 3s -objects 32768 -seed 11 -pacing

distill-bench:
	@$(GO) build -o /tmp/gcserve-db ./cmd/gcserve
	@$(GO) build -o /tmp/gcstats-db ./cmd/gcstats
	@rm -f /tmp/gcdistill-bench.jsonl
	@for rep in 1 2 3; do \
		for k in 4 8 16; do \
			echo "distill-bench: formula k0=$$k (rep $$rep)"; \
			/tmp/gcserve-db $(DISTILL_CELL) -k0 $$k -name "formula/k0=$$k" \
				-distill -distill-json /tmp/gcdistill-bench.jsonl >/dev/null || exit 1; \
		done; \
	done
	/tmp/gcstats-db pareto -distill /tmp/gcdistill-bench.jsonl
	/tmp/gcstats-db pareto -distill /tmp/gcdistill-bench.jsonl -json > BENCH_distill.json
	@rm -f /tmp/gcdistill-bench.jsonl /tmp/gcserve-db /tmp/gcstats-db
	@echo "distill-bench: wrote BENCH_distill.json"

bench:
	$(GO) test -bench=. -benchmem ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"
