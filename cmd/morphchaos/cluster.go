// Cluster chaos mode (-cluster): three replication nodes on loopback,
// whole-node kills mid-load, and the same two invariants as the fault
// matrix — zero lost acknowledged writes and zero spurious integrity
// errors — plus failover latency and replication lag measurements.
//
// The harness doubles as the failover control plane (it is the one doing
// the killing, so "detecting" the death is not what is under test): after
// a primary kill it waits out the lease, surveys the survivors' routes,
// promotes the most caught-up one at the next fencing epoch, and points
// the rest at it. What IS under test is everything the cluster promises
// around that dance: writes acked before the kill survive it, clients
// fail over via dial errors and MOVED redirects, a lagging candidate
// catches up from a donor before leading, and none of the churn ever
// surfaces as an integrity alarm.
//
// The migrate_kill_donor scenario adds live shard migration to the churn:
// with clients hammering one shard, that shard is migrated to a replica
// mid-load, the donor (the primary) is killed after cut-over, and the
// control plane must promote the recipient — its marks on the migrated
// shard are the highest, because after cut-over it is the shard's only
// journal. The same two invariants gate the run: every write acked before,
// during, or after the hand-off survives, and none of it trips integrity.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/fault"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

const (
	clusterShards  = 2
	clusterLease   = 150 * time.Millisecond
	loadDuration   = 700 * time.Millisecond
	killAt         = 150 * time.Millisecond
	probeLine      = uint64(memBytes - lineBytes) // reserved for the prober
	workerLines    = 256                          // per worker, away from the probe line
	clusterClients = 2

	// Migration scenario geometry: the load targets only the migrated
	// shard (shard 1 of 2: odd line indices), because the resilient client
	// re-targets wholly on MOVED — mixed-shard traffic would just measure
	// redirect ping-pong. 2 workers x 128 odd lines = lines 1..511, clear
	// of the prober's line 1023 (also odd, so the prober rides the
	// migration too).
	migrateShard       = 1
	migrateWorkerLines = 128
	migrateAt          = 100 * time.Millisecond
)

// clusterScenario is one cell of the node-kill matrix; each runs `seeds`
// times with distinct seeds so the failover percentiles mean something.
type clusterScenario struct {
	name        string
	seeds       int
	killPrimary bool // false = kill a replica instead
	latency     bool // route client traffic to the primary through a latency proxy
	migrate     bool // migrate a shard to a replica mid-load before the kill
}

func clusterMatrix(smoke bool) []clusterScenario {
	if smoke {
		return []clusterScenario{
			{name: "kill_replica", seeds: 1},
			{name: "kill_primary", seeds: 2, killPrimary: true},
			{name: "migrate_kill_donor", seeds: 1, killPrimary: true, migrate: true},
		}
	}
	return []clusterScenario{
		{name: "kill_replica", seeds: 2},
		{name: "kill_primary", seeds: 4, killPrimary: true},
		{name: "kill_primary_latency", seeds: 2, killPrimary: true, latency: true},
		{name: "migrate_kill_donor", seeds: 2, killPrimary: true, migrate: true},
	}
}

// clusterRunResult is one row of the -out report.
type clusterRunResult struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	Ops               uint64 `json:"ops"`
	AckedWrites       uint64 `json:"acked_writes"`
	LostAckedWrites   uint64 `json:"lost_acked_writes"`
	SpuriousIntegrity uint64 `json:"spurious_integrity_errors"`
	FinalOpFailures   uint64 `json:"final_op_failures"`

	Retries    uint64 `json:"retries"`
	Reconnects uint64 `json:"reconnects"`
	Reroutes   uint64 `json:"reroutes"`

	FailoverMS float64 `json:"failover_ms,omitempty"`
	MigrateMS  float64 `json:"migrate_ms,omitempty"`
	VerifyOK   bool    `json:"verify_ok"`
	Pass       bool    `json:"pass"`
	Note       string  `json:"note,omitempty"`
}

type clusterReport struct {
	Seed          int64              `json:"seed"`
	Smoke         bool               `json:"smoke"`
	Runs          []clusterRunResult `json:"runs"`
	FailoverP50MS float64            `json:"failover_p50_ms"`
	FailoverP99MS float64            `json:"failover_p99_ms"`
	ReplLagP50    uint64             `json:"repl_lag_p50_records"`
	ReplLagMax    uint64             `json:"repl_lag_max_records"`
	Pass          bool               `json:"pass"`
}

// runClusterMode is morphchaos -cluster: the node-kill matrix.
func runClusterMode(seed int64, smoke bool, out string) {
	rep := clusterReport{Seed: seed, Smoke: smoke, Pass: true}
	var failovers []float64
	var lags []uint64
	start := time.Now()
	for _, sc := range clusterMatrix(smoke) {
		for i := 0; i < sc.seeds; i++ {
			runSeed := seed + int64(i)*7919
			res, failoverMS, lagSamples, err := runClusterRun(sc, runSeed)
			if err != nil {
				log.Fatalf("morphchaos: %s seed %d: %v", sc.name, runSeed, err)
			}
			rep.Runs = append(rep.Runs, res)
			if !res.Pass {
				rep.Pass = false
			}
			if sc.killPrimary && res.Pass {
				failovers = append(failovers, failoverMS)
			}
			lags = append(lags, lagSamples...)
			status := "ok"
			if !res.Pass {
				status = "FAIL " + res.Note
			}
			fmt.Printf("morphchaos: %-20s seed %-6d %5d ops, %4d acked, %3d retries, %2d reroutes, failover %6.1fms — %s\n",
				sc.name, runSeed, res.Ops, res.AckedWrites, res.Retries, res.Reroutes, res.FailoverMS, status)
		}
	}
	rep.FailoverP50MS = percentileF(failovers, 0.50)
	rep.FailoverP99MS = percentileF(failovers, 0.99)
	rep.ReplLagP50 = percentileU(lags, 0.50)
	rep.ReplLagMax = percentileU(lags, 1.00)

	writeReport(out, rep)
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("morphchaos: cluster %s in %v — failover p50 %.1fms p99 %.1fms, repl lag p50 %d max %d records\n",
		verdict, time.Since(start).Round(time.Millisecond),
		rep.FailoverP50MS, rep.FailoverP99MS, rep.ReplLagP50, rep.ReplLagMax)
	if !rep.Pass {
		os.Exit(1)
	}
}

// chaosNode is one cluster member the harness can kill.
type chaosNode struct {
	addr   string
	node   *cluster.Node
	cancel func()
	done   chan struct{}

	mu    sync.Mutex
	alive bool
}

func (cn *chaosNode) isAlive() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.alive
}

// kill stops serving and closes the node — the whole member is gone.
func (cn *chaosNode) kill() {
	cn.mu.Lock()
	if !cn.alive {
		cn.mu.Unlock()
		return
	}
	cn.alive = false
	cn.mu.Unlock()
	// Halt first: handlers blocked waiting for replica acks must not ride
	// out AckTimeout while the server drain waits for them.
	cn.node.Halt()
	cn.cancel()
	<-cn.done
	_ = cn.node.Close()
}

func startChaosNode(shcfg shard.Config, dir string, mutate func(*cluster.Config)) (*chaosNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Self:      ln.Addr().String(),
		Lease:     clusterLease,
		PollWait:  20 * time.Millisecond,
		PollRetry: 2 * time.Millisecond,
	}
	mutate(&cfg)
	n, err := cluster.Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	srv := server.New(n, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	return &chaosNode{addr: cfg.Self, node: n, cancel: cancel, done: done, alive: true}, nil
}

// runClusterRun executes one seeded kill: stand up a 3-node cluster, load
// it, kill the target mid-load, fail over if the target was the primary,
// then audit every acknowledged write on the final primary.
func runClusterRun(sc clusterScenario, seed int64) (clusterRunResult, float64, []uint64, error) {
	res := clusterRunResult{Name: sc.name, Seed: seed}

	enc, tree, err := shard.Organization("morph128")
	if err != nil {
		return res, 0, nil, err
	}
	shcfg := shard.Config{
		Shards: clusterShards,
		Mem: secmem.Config{
			MemoryBytes: memBytes,
			Enc:         enc,
			Tree:        tree,
			Key:         []byte("0123456789abcdef"),
		},
	}

	var nodes []*chaosNode
	defer func() {
		for _, cn := range nodes {
			cn.kill()
		}
	}()
	dirs := make([]string, 3)
	for i := range dirs {
		d, err := os.MkdirTemp("", "morphchaos-cluster-*")
		if err != nil {
			return res, 0, nil, err
		}
		dirs[i] = d
		defer os.RemoveAll(d)
	}
	p, err := startChaosNode(shcfg, dirs[0], func(c *cluster.Config) {
		c.Primary = true
		c.AckReplicas = 1
	})
	if err != nil {
		return res, 0, nil, err
	}
	nodes = append(nodes, p)
	var replicas []*chaosNode
	for i := 0; i < 2; i++ {
		r, err := startChaosNode(shcfg, dirs[i+1], func(c *cluster.Config) { c.Leader = p.addr })
		if err != nil {
			return res, 0, nil, err
		}
		nodes = append(nodes, r)
		replicas = append(replicas, r)
	}
	for _, cn := range nodes {
		// Static membership for failover catch-up donor pulls.
		var peers []string
		for _, o := range nodes {
			if o != cn {
				peers = append(peers, o.addr)
			}
		}
		cn.node.SetPeers(peers)
	}

	// Client seed addresses; the primary optionally sits behind a latency
	// proxy (MOVED redirects carry real node addresses, so rerouted
	// traffic legitimately bypasses it — the proxy perturbs the seed path).
	seedAddrs := []string{p.addr, replicas[0].addr, replicas[1].addr}
	if sc.latency {
		proxy, stopProxy, err := fault.Start(p.addr, fault.Profile{
			Seed: seed, Latency: time.Millisecond, Jitter: time.Millisecond,
		})
		if err != nil {
			return res, 0, nil, err
		}
		defer stopProxy()
		seedAddrs[0] = proxy.Addr().String()
	}

	// Load: closed-loop workers with the fault-matrix quarantine
	// semantics, plus a no-retry prober measuring write availability.
	stop := make(chan struct{})
	workers := make([]workerResult, clusterClients)
	var wg sync.WaitGroup
	for c := 0; c < clusterClients; c++ {
		base := uint64(c) * workerLines * lineBytes
		lines := uint64(workerLines)
		addrOf := func(i uint64) uint64 { return base + i*lineBytes }
		if sc.migrate {
			off := uint64(c) * migrateWorkerLines
			lines = migrateWorkerLines
			addrOf = func(i uint64) uint64 { return (2*(off+i) + 1) * lineBytes }
		}
		wg.Add(1)
		go func(c int, addrOf func(uint64) uint64, lines uint64) {
			defer wg.Done()
			cl := wire.NewResilient(wire.ResilientConfig{
				Addrs:       seedAddrs,
				Timeout:     500 * time.Millisecond,
				MaxAttempts: 40,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  25 * time.Millisecond,
				RetryWrites: true,
				Seed:        seed + int64(c),
			})
			defer cl.Close()
			workers[c] = clusterWorker(cl, rand.New(rand.NewSource(seed+int64(c)*7919)),
				addrOf, lines, stop)
		}(c, addrOf, lines)
	}
	probec := make(chan probeResult, 1)
	go func() {
		cl := wire.NewResilient(wire.ResilientConfig{
			Addrs:       seedAddrs,
			Timeout:     100 * time.Millisecond,
			MaxAttempts: 1, // availability probe: no retries, fast failure
			Seed:        seed - 1,
		})
		defer cl.Close()
		probec <- prober(cl, stop)
	}()

	// Replication-lag sampler: max over shards of leader-minus-follower
	// durable marks, from the survivors' route responses.
	var lagMu sync.Mutex
	var lagSamples []uint64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if s, ok := sampleLag(nodes); ok {
					lagMu.Lock()
					lagSamples = append(lagSamples, s)
					lagMu.Unlock()
				}
			}
		}
	}()

	// For the migration scenario: let load land, then ship the hot shard
	// to the first replica while the writes keep coming. The kill below
	// then takes out the donor, and failover MUST land on the recipient —
	// after cut-over its journal is the only copy of the shard's acked
	// tail, which is exactly what makes its marks the highest.
	recipient := replicas[0]
	if sc.migrate {
		time.Sleep(migrateAt)
		mt := time.Now()
		if err := runLiveMigration(recipient.addr, p.addr, migrateShard); err != nil {
			close(stop)
			wg.Wait()
			<-probec
			<-samplerDone
			return res, 0, nil, fmt.Errorf("live migration: %w", err)
		}
		res.MigrateMS = float64(time.Since(mt).Microseconds()) / 1000
	}

	// The kill, and (for primary kills) the failover control plane.
	target := replicas[1]
	if sc.killPrimary {
		target = p
	}
	time.Sleep(killAt)
	target.kill()
	killT := time.Now() // the node is fully gone from here
	if sc.killPrimary {
		if err := failOver(nodes, 2); err != nil {
			close(stop)
			wg.Wait()
			<-probec
			<-samplerDone
			return res, 0, nil, fmt.Errorf("failover: %w", err)
		}
	}
	time.Sleep(loadDuration - killAt)
	close(stop)
	wg.Wait()
	probe := <-probec
	<-samplerDone

	for c := range workers {
		w := &workers[c]
		res.Ops += w.reads + w.writes + w.finalFailures
		res.AckedWrites += w.writes
		res.SpuriousIntegrity += w.spuriousIntegrity
		res.FinalOpFailures += w.finalFailures
		res.Retries += w.net.Retries
		res.Reconnects += w.net.Reconnects
		res.Reroutes += w.net.Reroutes
	}
	res.Ops += probe.acked + probe.failed
	res.AckedWrites += probe.acked
	res.SpuriousIntegrity += probe.spuriousIntegrity
	res.FinalOpFailures += probe.failed

	// Failover latency: kill to the prober's first acknowledged write.
	var failoverMS float64
	if sc.killPrimary {
		first := probe.firstSuccessAfter(killT)
		if first.IsZero() {
			res.Pass = false
			res.Note = "no successful write after the primary kill"
			return res, 0, nil, nil
		}
		failoverMS = float64(first.Sub(killT).Microseconds()) / 1000
		res.FailoverMS = failoverMS
	}

	// Audit on the final primary over a clean connection.
	final := currentPrimary(nodes)
	if final == nil {
		res.Pass = false
		res.Note = "no primary survived the run"
		return res, 0, nil, nil
	}
	if sc.migrate && final != recipient {
		// Anyone else leading the migrated shard would silently serve its
		// stale pre-cut-over copy.
		res.Pass = false
		res.Note = fmt.Sprintf("failover promoted %s, not the migrated shard's recipient %s", final.addr, recipient.addr)
		return res, 0, nil, nil
	}
	direct := wire.NewResilient(wire.ResilientConfig{Addr: final.addr, Timeout: 10 * time.Second, Seed: seed - 2})
	defer direct.Close()
	for c := range workers {
		w := &workers[c]
		for a := range w.seqs {
			got, err := direct.Read(a)
			if err != nil || !w.acceptable(got, a) {
				res.LostAckedWrites++
			}
		}
	}
	// The probe line keeps being written after failures, so any seq up to
	// the last attempt is a legitimate survivor (zombie writes included).
	if probe.lastSeq > 0 {
		got, err := direct.Read(probeLine)
		if err != nil || !probe.acceptableProbe(got) {
			res.LostAckedWrites++
		}
	}
	res.VerifyOK = direct.Verify() == nil

	res.Pass = res.SpuriousIntegrity == 0 && res.LostAckedWrites == 0 && res.VerifyOK
	if !res.Pass {
		res.Note = fmt.Sprintf("%d spurious integrity, %d lost acked writes, verify_ok=%v",
			res.SpuriousIntegrity, res.LostAckedWrites, res.VerifyOK)
	}
	lagMu.Lock()
	defer lagMu.Unlock()
	return res, failoverMS, lagSamples, nil
}

// runLiveMigration asks recipient to pull shard from donor — the same
// control-plane call an operator rebalancing the cluster would make.
func runLiveMigration(recipient, donor string, shard uint32) error {
	cl, err := wire.Dial(recipient, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateRun, Epoch: 1, Shard: shard, Donor: donor,
	})
	return err
}

// clusterWorker is the fault-matrix worker loop, time-bounded instead of
// op-counted so the load spans the kill and the recovery. addrOf maps a
// line index in [0, lines) to the worker's address for it.
func clusterWorker(cl *wire.ResilientClient, rng *rand.Rand, addrOf func(uint64) uint64, lines uint64, stop <-chan struct{}) workerResult {
	w := workerResult{
		seqs:  make(map[uint64]uint64, lines),
		maybe: make(map[uint64][]uint64, 4),
	}
	for {
		select {
		case <-stop:
			w.net = cl.Counters()
			return w
		default:
		}
		a := addrOf(uint64(rng.Int63n(int64(lines))))
		if rng.Float64() < 0.5 && len(w.maybe[a]) == 0 {
			seq := w.seqs[a] + 1
			if err := cl.Write(a, fill(a, seq)); err != nil {
				w.record(err)
				w.maybe[a] = append(w.maybe[a], seq)
				continue
			}
			w.seqs[a] = seq
			w.writes++
		} else {
			got, err := cl.Read(a)
			if err != nil {
				w.record(err)
				continue
			}
			w.reads++
			if w.acceptable(got, a) {
				w.verified++
			} else {
				w.mismatches++
			}
		}
	}
}

// probeResult is the availability prober's history on its reserved line.
type probeResult struct {
	lastSeq           uint64
	acked             uint64
	failed            uint64
	spuriousIntegrity uint64
	ackedSeqs         map[uint64]bool
	succAt            []time.Time
}

// prober writes an incrementing sequence to the reserved line as fast as
// failures allow; the gap in succAt around a kill is the failover time.
func prober(cl *wire.ResilientClient, stop <-chan struct{}) probeResult {
	pr := probeResult{ackedSeqs: make(map[uint64]bool)}
	for {
		select {
		case <-stop:
			return pr
		default:
		}
		pr.lastSeq++
		if err := cl.Write(probeLine, fill(probeLine, pr.lastSeq)); err != nil {
			var w workerResult
			w.record(err)
			pr.spuriousIntegrity += w.spuriousIntegrity
			pr.failed += w.finalFailures
			time.Sleep(2 * time.Millisecond)
			continue
		}
		pr.acked++
		pr.ackedSeqs[pr.lastSeq] = true
		pr.succAt = append(pr.succAt, time.Now())
		time.Sleep(time.Millisecond)
	}
}

func (pr *probeResult) firstSuccessAfter(t time.Time) time.Time {
	for _, s := range pr.succAt {
		if s.After(t) {
			return s
		}
	}
	return time.Time{}
}

// acceptableProbe: the line must hold some attempted sequence (acked or
// indeterminate) — or zeros if nothing was ever acked.
func (pr *probeResult) acceptableProbe(got []byte) bool {
	if pr.acked == 0 && bytes.Equal(got, make([]byte, lineBytes)) {
		return true
	}
	for s := uint64(1); s <= pr.lastSeq; s++ {
		if bytes.Equal(got, fill(probeLine, s)) {
			return true
		}
	}
	return false
}

// failOver is the control plane: wait out the lease, survey survivors,
// promote the most caught-up one, and point the rest at it. Promotion is
// retried because the candidate refuses while its leader lease is fresh.
func failOver(nodes []*chaosNode, newEpoch uint64) error {
	time.Sleep(clusterLease + 30*time.Millisecond)
	var survivors []*chaosNode
	var routes []*wire.RouteInfo
	for _, cn := range nodes {
		if cn.isAlive() {
			survivors = append(survivors, cn)
			routes = append(routes, cn.node.Route())
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("no survivors")
	}
	min := append([]uint64(nil), routes[0].Marks...)
	for _, ri := range routes[1:] {
		for i, m := range ri.Marks {
			if m > min[i] {
				min[i] = m
			}
		}
	}
	// Prefer a candidate that already covers min; any survivor works — a
	// lagging one catches up from its peers during Promote.
	candidate := survivors[0]
	for i, ri := range routes {
		ok := true
		for j, m := range ri.Marks {
			if m < min[j] {
				ok = false
				break
			}
		}
		if ok {
			candidate = survivors[i]
			break
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := candidate.node.Promote(newEpoch, min)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("promote %s: %w", candidate.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, cn := range survivors {
		if cn != candidate {
			if err := cn.node.Follow(newEpoch, candidate.addr); err != nil {
				return fmt.Errorf("follow %s -> %s: %w", cn.addr, candidate.addr, err)
			}
		}
	}
	return nil
}

func currentPrimary(nodes []*chaosNode) *chaosNode {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, cn := range nodes {
			if cn.isAlive() && cn.node.Route().Role == cluster.RolePrimary {
				return cn
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// sampleLag returns the worst follower lag in records, if a primary is
// currently serving.
func sampleLag(nodes []*chaosNode) (uint64, bool) {
	var leader *wire.RouteInfo
	var followers []*wire.RouteInfo
	for _, cn := range nodes {
		if !cn.isAlive() {
			continue
		}
		ri := cn.node.Route()
		if ri.Role == cluster.RolePrimary {
			leader = ri
		} else {
			followers = append(followers, ri)
		}
	}
	if leader == nil || len(followers) == 0 {
		return 0, false
	}
	var worst uint64
	for _, f := range followers {
		for i, m := range leader.Marks {
			if i < len(f.Marks) && m > f.Marks[i] && m-f.Marks[i] > worst {
				worst = m - f.Marks[i]
			}
		}
	}
	return worst, true
}

func percentileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

func percentileU(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}
