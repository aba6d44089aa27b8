GO ?= go

.PHONY: FORCE build test race morphdebug vet fmt morphlint escapes loc bench perf-engine fuzz-smoke serve-smoke gc-smoke crash-smoke ckpt-smoke chaos-smoke cluster-smoke obs-smoke proof-smoke tenant-smoke verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the test suite with internal/invariant assertions compiled in.
morphdebug:
	$(GO) test -tags morphdebug ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; a name is a failure. testdata
# holds analyzer fixtures that are the way they are on purpose.
fmt:
	@unformatted="$$(gofmt -l . | grep -v /testdata/)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# The binaries the targets below run, rebuilt every time: go's build cache
# is the dependency tracker, and a prerequisite list kept by hand goes stale
# and runs an old binary. bin/morphcheck.race is the race-built harness.
bin/morphlint bin/morphserve bin/morphload bin/morphcheck bin/morphscope bin/morphaudit: FORCE
	$(GO) build -o $@ ./cmd/$(@F)

bin/morphcheck.race: FORCE
	$(GO) build -race -o $@ ./cmd/morphcheck

FORCE:

# Full eight-analyzer suite: any finding fails. One that is right on purpose
# carries //morphlint:allow <analyzer> -- reason on its line.
morphlint: bin/morphlint
	bin/morphlint ./...

# What hotalloc cannot see: the compiler's own account (-gcflags=-m) of the
# packages that annotate a //morph:hotpath function. A "moved to heap" inside
# one fails unless its line carries //morphlint:allow hotalloc.
escapes: bin/morphlint
	bin/morphlint -escapes ./...

# Non-test Go lines per package, one line each, and their sum: the figure a
# change that claims to remove code reports before and after.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | while read dir pkg; do \
		echo "$$(find $$dir -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l) $$pkg"; \
	done | awk '{ n += $$1; printf "%7d %s\n", $$1, $$2 } END { printf "%7d total\n", n }'

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The engine's three kernels — counter-line codec, line MAC, secmem
# read/write — its store (a sharded prefill, a sparse dirty cut, a cache
# flush), the WAL that journals it (a record sealed and appended, a segment
# replayed) and the delta checkpoint cut from it under a writer as go-test
# benchmarks: the before/after rows of a change to any of them are this
# command on each commit.
perf-engine:
	$(GO) test -run '^$$' -bench 'Write|ReadWarm|ReadColdVerify|Encode|Decode|MAC|CollectDirtySparse|FlushMetadataCache|Append|Replay' -benchmem -count 5 \
		./internal/secmem ./internal/counters ./internal/mac ./internal/wal
	$(GO) test -run '^$$' -bench 'Prefill' -benchmem -count 5 -cpu 2 ./internal/shard
	$(GO) test -run '^$$' -bench 'DeltaCut' -benchmem -count 5 -benchtime 20x -cpu 2 ./internal/durable

# Ten seconds of each fuzz target over the counter-line codec — the decoders
# face attacker-controlled bytes, and the encoders are hand-packed words that
# must agree with the bit-serial reference on every input — over the store's
# line table against the map model it replaced, over the MAC against
# crypto/hmac, over the WAL's two decoders, over the checkpoint stream and
# the state streams inside it, whose counts and lengths are read before the
# MAC that covers them, over secmem.Load, whose Save stream no MAC covers at
# all, over the wire's frame reader, whose length prefix arrives before any
# authentication does, and over the OpReplicate payload codec
# (FuzzReplicateCodec), the one path a shard's records take between nodes.
FUZZTIME ?= 10s
fuzz-smoke:
	@for pkg in ./internal/counters ./internal/secmem ./internal/mac ./internal/wal ./internal/ckpt ./internal/wire; do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Loopback smoke test of the serving layer: morphload drives a local
# morphserve and verifies integrity end to end (including an injected
# tamper). A smoke is a pass/fail gate — its exit status — and writes no
# report: a three-second run is not a number to keep (bench/morphbench
# measures).
serve-smoke: bin/morphserve bin/morphload
	bin/morphserve -addr 127.0.0.1:7443 -shards 4 -org morph128 -tamper & \
	SERVE_PID=$$!; sleep 1; \
	bin/morphload -addr 127.0.0.1:7443 -clients 8 -duration 3s -tamper; \
	STATUS=$$?; kill $$SERVE_PID; exit $$STATUS

# The served store's footprint claim as a count: a default five-second
# morphload run against a morphserve started with GODEBUG=gctrace=1 must end
# with no collection on the child's stderr when the store is volatile, and at
# most one when it journals and cuts a delta a second. A served op that
# allocates again — 68 bytes of it was eight collections in this run — shows
# here before it shows in peak_rss_mb. Leaves nothing outside bin/.
gc-smoke: bin/morphserve bin/morphload
	@rm -rf bin/gc-smoke && mkdir -p bin/gc-smoke; STATUS=0; \
	run() { \
		GODEBUG=gctrace=1 bin/morphserve -addr 127.0.0.1:$$2 -shards 2 -mem 67108864 $$4 2> bin/gc-smoke/$$1.stderr & \
		SERVE_PID=$$!; sleep 1; \
		bin/morphload -addr 127.0.0.1:$$2 || STATUS=1; \
		kill $$SERVE_PID; wait $$SERVE_PID; \
		GCS=$$(grep -c '^gc [0-9]* @' bin/gc-smoke/$$1.stderr); \
		echo "gc-smoke: $$1: $$GCS collections, want at most $$3"; \
		if [ $$GCS -gt $$3 ]; then grep '^gc ' bin/gc-smoke/$$1.stderr; STATUS=1; fi; \
	}; \
	run volatile 7843 0 ""; \
	run durable 7844 1 "-data-dir bin/gc-smoke/data -fsync interval -delta-every 1s"; \
	exit $$STATUS

# The four harness smokes are cmd/morphcheck's three subcommands (one shadow
# model, internal/oracle, under all of them). Each matrix runs once per build
# flavour: race-built as a binary, here (ckpt-smoke, chaos-smoke,
# cluster-smoke); not race-built in-process under `go test ./cmd/morphcheck`
# (TestSmokeMatrices, which skips itself when race-built, so `go test -race
# ./...` does not run them a second time). crash-smoke is the one binary run
# that is not race-built: it is the command line's own smoke.

# Reduced crash-injection matrix: kill-point surgery on the WAL, the
# snapshot rename, and the epoch truncation, each recovered and audited
# against the journal prefix that survived. The full matrix is
# `bin/morphcheck crash` with defaults; this keeps CI fast.
crash-smoke: bin/morphcheck
	bin/morphcheck crash -points 9 -writes 300

# Incremental-checkpoint smoke test, race-built: the delta/compaction
# crash windows and delta tamper probe, crash recovery at two state sizes
# (failing if the delta path's replay scales with total history instead of
# the dirty tail, or is slower than full replay at a small dirty fraction),
# and the background-checkpointer write-p99 stall gate.
ckpt-smoke: bin/morphcheck.race
	bin/morphcheck.race crash -points 16 -writes 300

# Reduced seeded fault matrix under the race detector: client-proxy-server
# through cuts, stalls, and admission sheds, asserting zero lost
# acknowledged writes and zero spurious integrity errors. The full matrix
# is `bin/morphcheck chaos` with defaults; this keeps CI fast.
chaos-smoke: bin/morphcheck.race
	bin/morphcheck.race chaos -smoke

# Reduced node-kill matrix under the race detector: a three-node loopback
# cluster (primary + two replicas) with a node killed mid-load, followed
# by a lease-expiry failover when the primary was the one killed. Asserts
# zero lost acknowledged writes and zero spurious integrity errors, and
# prints each run's failover latency. The full matrix is
# `bin/morphcheck cluster` with defaults; this keeps CI fast.
cluster-smoke: bin/morphcheck.race
	bin/morphcheck.race cluster -smoke

# Observability smoke test: a race-built morphserve with the admin plane
# on, morphload driving it (with live -report lines), morphscope polling
# per-op quantiles and event rates into bin/BENCH_obs.json, then a -check
# probe asserting the telemetry is live (healthz, op samples, events).
obs-smoke: bin/morphload bin/morphscope
	$(GO) build -race -o bin/morphserve.race ./cmd/morphserve
	bin/morphserve.race -addr 127.0.0.1:7543 -admin 127.0.0.1:7544 -shards 4 -org morph128 & \
	SERVE_PID=$$!; sleep 1; \
	bin/morphload -addr 127.0.0.1:7543 -clients 4 -duration 5s -report 2s & \
	LOAD_PID=$$!; sleep 1; \
	bin/morphscope -admin 127.0.0.1:7544 -interval 1s -samples 3 -json bin/BENCH_obs.json; \
	SCOPE=$$?; wait $$LOAD_PID; LOAD=$$?; \
	bin/morphscope -admin 127.0.0.1:7544 -check; CHECK=$$?; \
	kill $$SERVE_PID; wait $$SERVE_PID 2>/dev/null; \
	exit $$(( SCOPE + LOAD + CHECK ))

# Verified-read smoke test: a race-built morphserve publishes signed epoch
# roots; morphload -audit interleaves client-verified PROOF reads with
# plain ones and prints the overhead; morphaudit then
# passes a clean audit, must exit 1 when a backing-store byte is flipped
# (spot verification), and must exit 1 again when the transparency log is
# forged through the demo /rootz/tamper endpoint (equivocation).
proof-smoke: bin/morphload bin/morphaudit
	$(GO) build -race -o bin/morphserve.race ./cmd/morphserve
	rm -f bin/audit.state
	bin/morphserve.race -addr 127.0.0.1:7643 -admin 127.0.0.1:7644 -shards 4 -org morph128 -tamper & \
	SERVE_PID=$$!; sleep 1; STATUS=0; \
	bin/morphload -addr 127.0.0.1:7643 -clients 4 -duration 3s -audit || STATUS=1; \
	bin/morphaudit -addr 127.0.0.1:7643 -once -state bin/audit.state || STATUS=1; \
	bin/morphload -addr 127.0.0.1:7643 -clients 1 -duration 1s -writes 1 -tamper || STATUS=1; \
	bin/morphaudit -addr 127.0.0.1:7643 -once -state bin/audit.state; RC=$$?; \
	if [ $$RC -ne 1 ]; then echo "proof-smoke: tampered store: want exit 1, got $$RC"; STATUS=1; fi; \
	curl -fsS -X POST http://127.0.0.1:7644/rootz/tamper || STATUS=1; \
	bin/morphaudit -addr 127.0.0.1:7643 -once -state bin/audit.state; RC=$$?; \
	if [ $$RC -ne 1 ]; then echo "proof-smoke: forged root log: want exit 1, got $$RC"; STATUS=1; fi; \
	kill $$SERVE_PID; wait $$SERVE_PID 2>/dev/null; exit $$STATUS

# Multi-tenant isolation smoke test: a race-built morphserve with per-tenant
# key domains and quotas, then morphload -mix runs the protected victim solo
# and against a greedy rate-capped aggressor. Passes only if the victim's
# p99 stays under 2x its solo baseline while the aggressor is shed, and a
# cross-tenant read is denied with a typed integrity error.
tenant-smoke: bin/morphload
	$(GO) build -race -o bin/morphserve.race ./cmd/morphserve
	printf '[{"id":"victim","secret":"vs","weight":4},{"id":"greedy","secret":"gs","weight":1,"ops_per_sec":400,"max_inflight":8}]\n' > bin/tenants.json
	bin/morphserve.race -addr 127.0.0.1:7743 -shards 4 -org morph128 -tenants bin/tenants.json & \
	SERVE_PID=$$!; sleep 1; \
	bin/morphload -addr 127.0.0.1:7743 -clients 4 -duration 3s -mix bin/tenants.json; \
	STATUS=$$?; kill $$SERVE_PID; wait $$SERVE_PID 2>/dev/null; exit $$STATUS

verify: build fmt vet morphlint morphdebug race

clean:
	rm -rf bin
