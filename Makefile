GO ?= go

.PHONY: FORCE build test race morphdebug vet fmt morphlint loc bench experiments perf-engine fuzz-smoke serve-smoke gc-smoke crash-smoke ckpt-smoke chaos-smoke cluster-smoke obs-smoke proof-smoke tenant-smoke verify clean

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

# Full seven-analyzer suite: any finding fails. One that is right on purpose
# carries //morphlint:allow <analyzer> -- reason on its line.
morphlint: bin/morphlint
	bin/morphlint ./...

# Non-test Go lines per package, one line each, and their sum: the figure a
# change that claims to remove code reports before and after.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | while read dir pkg; do \
		echo "$$(find $$dir -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l) $$pkg"; \
	done | awk '{ n += $$1; printf "%7d %s\n", $$1, $$2 } END { printf "%7d total\n", n }'

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The paper's whole evaluation at full scale — about 18 minutes on two vCPUs,
# so no CI step runs it — written to results/experiments.txt behind '#' lines
# that say what made it. The reduced run that go test checks is
# cmd/experiments/testdata/figures.golden (TestFiguresGolden).
experiments:
	@mkdir -p bin
	@{ echo "# commit: $$(git rev-parse HEAD 2>/dev/null || echo unknown)$$(git diff --quiet HEAD -- . ':!results' 2>/dev/null || echo ' (with uncommitted changes)')"; \
	  echo "# go: $$($(GO) version)"; \
	  echo "# cpus: $$(nproc)"; \
	  echo "# command: go run ./cmd/experiments"; } > bin/experiments.txt
	$(GO) run ./cmd/experiments >> bin/experiments.txt
	mv bin/experiments.txt results/experiments.txt

# The engine's four kernels — counter-line codec, line pad (on the AES-NI
# kernel and on the portable path), line MAC, secmem read/write — its store
# (a sharded prefill, a sparse dirty cut, a cache flush), the WAL that
# journals it (a record sealed and appended, a segment replayed, a journaled
# write on a store nobody polls and on a polled one, a caught-up poll of 1,
# 16 and 512 records from a shard's tail, a lagging replica's batch read
# from the middle of a segment, a store recovered by full replay and through
# a delta chain), the delta checkpoint cut from it under a
# writer, a 64 MiB state stream written and read back, and a proof of one
# line (and its signature alone) as go-test
# benchmarks, and the store's resident bytes per stored line
# (TestStoreFootprint) beside the prefill's B/op: the before/after rows of a
# change to any of them are this command on each commit.
perf-engine:
	$(GO) test -run '^$$' -bench 'Write|ReadWarm|ReadColdVerify|Encode|Decode|Pad|MAC|CollectDirtySparse|FlushMetadataCache|Append|Replay' -benchmem -count 5 \
		./internal/secmem ./internal/counters ./internal/aesctr ./internal/mac ./internal/wal
	$(GO) test -run '^$$' -bench 'Prefill' -benchmem -count 5 -cpu 2 ./internal/shard
	$(GO) test -run '^$$' -bench 'DeltaCut' -benchmem -count 5 -benchtime 20x -cpu 2 ./internal/durable
	$(GO) test -run '^$$' -bench 'Stream' -benchmem -count 5 ./internal/ckpt
	$(GO) test -run '^$$' -bench 'JournaledWrite|ReadRecords' -benchmem -count 5 ./internal/durable
	$(GO) test -run '^$$' -bench 'Recover' -benchmem -count 5 -benchtime 20x ./internal/durable
	$(GO) test -run '^$$' -bench 'Prove|Attest' -benchmem -count 5 -benchtime 1000x ./internal/shard ./internal/proof
	$(GO) test -run 'TestStoreFootprint' -v ./internal/secmem | grep 'resident bytes'

# Ten seconds of each fuzz target over the counter-line codec — the decoders
# face attacker-controlled bytes, and the encoders are hand-packed words that
# must agree with the bit-serial reference on every input — over the store's
# line table against the map model it replaced, over the line pad's AES-NI
# kernel against crypto/aes, over the MAC against the textbook
# GHASH-then-AES and its PCLMULQDQ kernel against crypto/cipher's GCM (the
# line MAC and the WAL's record seal), over the
# WAL's two decoders, over the checkpoint stream and
# the state streams inside it, whose counts and lengths are read before the
# MAC that covers them, over the bodies of the two sealed files of a data
# directory (FuzzTenantsBody: TENANTS' tenant list; FuzzMetaBody:
# cluster.META's epoch and role), over secmem.Load, whose Save stream no MAC covers at
# all, over the wire's frame reader, whose length prefix arrives before any
# authentication does, over the cluster control payload codecs
# (FuzzReplicateCodec: OpReplicate's request and response, the one path a
# shard's records take between nodes), over the request decoders a
# server runs before anything checks the request (FuzzRequestCodec: the
# address, WRITE, ROOT_RANGE and HELLO payloads),
# over morphserve's admin request-head parser (FuzzAdminRequest), which
# reads whatever reaches the -admin port before anything routes on it, and
# over the PROOF, ROOT and ROOT_RANGE replies' decoders (FuzzProofDecode),
# which a thin client and morphaudit run on whatever the server sends before
# they verify a MAC or a signature. The targets are whatever Fuzz functions
# those packages hold, and the loop ends by saying how many it ran.
FUZZTIME ?= 10s
fuzz-smoke:
	@n=0; for pkg in ./internal/counters ./internal/secmem ./internal/aesctr ./internal/mac ./internal/wal ./internal/ckpt ./internal/durable ./internal/cluster ./internal/wire ./internal/proof ./cmd/morphserve; do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
			n=$$((n + 1)); \
		done; \
	done; echo "fuzz-smoke: $$n targets, $(FUZZTIME) each"

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
# snapshot rename, the epoch truncation and the rotate window (every shard
# journaling into its next-epoch segment before the snapshot renamed), each
# recovered and audited against the journal prefix that survived. The full
# matrix is `bin/morphcheck crash` with defaults; this keeps CI fast.
crash-smoke: bin/morphcheck
	bin/morphcheck crash -points 9 -writes 300

# Incremental-checkpoint smoke test, race-built: the delta, compaction and
# rotate crash windows and the delta and next-epoch-segment tamper probes,
# and crash recovery at two state sizes, failing unless the delta path
# replays, authenticates and reads exactly the dirty tail's WAL frames, not
# the history's (the recovery times are printed, not gated). That no
# checkpoint stalls a writer is a test, not a timing here:
# TestWritesFinishWhileACutIsParked and TestFullCheckpointUnderWriters
# (internal/durable).
ckpt-smoke: bin/morphcheck.race
	bin/morphcheck.race crash -points 16 -writes 300

# Reduced seeded fault matrix under the race detector: clients against a
# server whose listener injects cuts, stalls, and admission sheds, asserting
# zero lost acknowledged writes and zero spurious integrity errors. The full
# matrix is `bin/morphcheck chaos` with defaults; this keeps CI fast.
chaos-smoke: bin/morphcheck.race
	bin/morphcheck.race chaos -smoke

# Reduced node-kill matrix under the race detector: a three-node loopback
# cluster (primary + two replicas) with a node killed mid-load, followed by
# a lease-expiry failover when the primary was the one killed — in one row
# the clients' first seed is a second listener of the primary's that adds
# latency to every read and write, and killing the node stops both — and a
# hostile-peer row that sprays every node with unbound REPLICATE polls at
# epochs up to 2^64-1 mid-load. Asserts zero lost acknowledged writes, zero
# spurious integrity errors and, under the spray, zero role or epoch
# changes, and prints each run's failover latency. The full matrix is
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
# address ranges, key domains and quotas, then morphload -mix runs the
# protected victim solo, against a greedy rate-capped aggressor, and solo
# again. Passes only if the aggressor is shed, the victim reads back its line
# 0 after the aggressor wrote its own line 0, and the aggressor's first
# address past its range is refused with a typed error that is not an
# integrity error. The victim's p99 against the aggressor over its solo p99 is
# printed, not gated: the scheduler's per-tenant admitted and shed counts under
# these two specs are (TestMixIsolationCounts, internal/tenant). Then the durable
# leg: the same mix against a store journaled under -data-dir with a delta a
# second, drained with SIGTERM, restarted on that directory and mixed again —
# the probes must hold on the recovered store — and a third start with a
# one-tenant list must refuse the directory (exit non-zero, not serve).
tenant-smoke: bin/morphload
	$(GO) build -race -o bin/morphserve.race ./cmd/morphserve
	printf '[{"id":"victim","secret":"vs","weight":4},{"id":"greedy","secret":"gs","weight":1,"ops_per_sec":400,"max_inflight":8}]\n' > bin/tenants.json
	printf '[{"id":"victim","secret":"vs"}]\n' > bin/tenants-one.json
	@rm -rf bin/tenant-data; STATUS=0; \
	mix() { \
		bin/morphserve.race -addr 127.0.0.1:7743 -shards 4 -org morph128 -tenants $$1 $$2 & \
		SERVE_PID=$$!; sleep 1; \
		bin/morphload -addr 127.0.0.1:7743 -clients 4 -duration 3s -mix bin/tenants.json || STATUS=1; \
		kill -TERM $$SERVE_PID; wait $$SERVE_PID || STATUS=1; \
	}; \
	DURABLE="-data-dir bin/tenant-data -fsync interval -delta-every 1s"; \
	echo "tenant-smoke: volatile"; mix bin/tenants.json ""; \
	echo "tenant-smoke: durable"; mix bin/tenants.json "$$DURABLE"; \
	echo "tenant-smoke: durable, restarted"; mix bin/tenants.json "$$DURABLE"; \
	echo "tenant-smoke: durable, restarted with one tenant"; \
	timeout 10 bin/morphserve.race -addr 127.0.0.1:7743 -shards 4 -org morph128 -tenants bin/tenants-one.json $$DURABLE; RC=$$?; \
	if [ $$RC -eq 0 ] || [ $$RC -eq 124 ]; then echo "tenant-smoke: a one-tenant list opened the two-tenant store"; STATUS=1; fi; \
	exit $$STATUS

verify: build fmt vet morphlint morphdebug race

clean:
	rm -rf bin
