package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// syncBuffer collects log output written from several goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// dirState is a directory's names, sizes and modification times.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %d\n", e.Name(), info.Size(), info.ModTime().UnixNano())
	}
	return b.String()
}

// TestGracefulStopEndsOnTheFinalSnapshot: a durable morphserve under writes
// and a 100 µs delta cadence, stopped gracefully. The background checkpointer
// must be gone before the final checkpoint and the close: the newest epoch in
// the directory is the final snapshot — the next start replays nothing — no
// temp file remains, nothing in the directory changes once serve has
// returned, and no checkpoint was refused for coming after Close.
func TestGracefulStopEndsOnTheFinalSnapshot(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	o, err := parseAndValidate(t, "-shards", "2", "-mem", "65536", "-data-dir", dir,
		"-fsync", "interval", "-snapshot-every", "0", "-delta-every", "100us")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, o, ln, nil); close(served) }()
	defer func() { cancel(); <-served }() // a failed test too waits serve out of its directory

	cl, err := wire.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	line := make([]byte, 64)
	// Write until the cadence has cut a few deltas, so the stop lands among
	// them, then stop with the writer's last lines still dirty.
	for i := uint64(0); ; i++ {
		line[0] = byte(i)
		if err := cl.Write(i%512*64, line); err != nil {
			t.Fatal(err)
		}
		if i >= 2000 && i%256 == 0 {
			live, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(fmt.Sprint(live), "delta.") >= 2 {
				break
			}
		}
		if i > 1<<20 {
			t.Fatal("no delta cut in a million writes under a 100 µs cadence")
		}
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}

	stopped := dirState(t, dir)
	var newest string
	for _, f := range strings.Fields(stopped) {
		// snapshot.<seq> and delta.<seq>.<base>, both seq in %016x.
		if _, rest, ok := strings.Cut(f, "."); ok && (strings.HasPrefix(f, "snapshot.") || strings.HasPrefix(f, "delta.")) && rest[:16] >= newest {
			newest = rest[:16]
		}
	}
	if !strings.Contains(stopped, "snapshot."+newest+" ") {
		t.Errorf("the newest epoch %s is not the final snapshot:\n%s", newest, stopped)
	}
	if strings.Contains(stopped, ".tmp") {
		t.Errorf("a temp file outlived the stop:\n%s", stopped)
	}
	time.Sleep(20 * time.Millisecond) // two hundred cadences
	if now := dirState(t, dir); now != stopped {
		t.Errorf("the directory changed after serve returned:\n%s->\n%s", stopped, now)
	}
	if out := logs.String(); strings.Contains(out, "after Close") || strings.Contains(out, "background checkpoint:") {
		t.Errorf("a background checkpoint failed:\n%s", out)
	}
}

// composeTenants are the composition rows' tenants; each one's secret is its
// id + "-secret".
var composeTenants = []string{"alpha", "beta", "gamma"}

// composeArgs is the store every composition row serves: 2 MorphCtr-128
// shards of 64 KiB each, so each of three tenants gets 512 lines.
var composeArgs = []string{"-shards", "2", "-mem", "131072", "-snapshot-every", "0", "-timeout", "5s"}

// tenantConfig writes a -tenants file listing ids, in that order, into dir.
func tenantConfig(t *testing.T, dir string, ids ...string) string {
	t.Helper()
	specs := make([]string, len(ids))
	for i, id := range ids {
		specs[i] = fmt.Sprintf(`{"id":%q,"secret":%q}`, id, id+"-secret")
	}
	path := filepath.Join(dir, strings.Join(ids, "-")+".json")
	if err := os.WriteFile(path, []byte("["+strings.Join(specs, ",")+"]"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startServe runs serve with args on addr ("127.0.0.1:0" for a fresh port),
// with its admin plane, when args set -admin, on a listener of its own, and
// returns the two addresses it listens on and the graceful stop, which
// returns serve's result. A failed test stops it too.
func startServe(t *testing.T, addr string, args ...string) (string, string, func() error) {
	t.Helper()
	o, err := parseAndValidate(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var aln net.Listener
	var admin string
	if o.admin != "" {
		if aln, err = net.Listen("tcp", o.admin); err != nil {
			t.Fatal(err)
		}
		admin = aln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, o, ln, aln); close(served) }()
	var once sync.Once
	var result error
	stop := func() error {
		once.Do(func() {
			cancel()
			result = <-served
			_ = ln.Close()
			if aln != nil {
				_ = aln.Close()
			}
		})
		return result
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String(), admin, stop
}

// bound dials addr and binds the connection to tenant id.
func bound(t *testing.T, addr, id string) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Hello(id, id+"-secret"); err != nil {
		cl.Close()
		t.Fatalf("hello %s: %v", id, err)
	}
	return cl
}

// tenantLoad runs a seeded write/read load of each tenant in its own bound
// connection, at the same relative addresses, into each tenant's history in
// hists (a fresh one, over a fresh store, when hists has none). Every read
// must be one the history admits.
func tenantLoad(t *testing.T, addr string, seed int64, hists map[string]*oracle.History) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, id := range composeTenants {
		if hists[id] == nil {
			hists[id] = oracle.New(oracle.Zeros)
		}
		h := hists[id]
		wg.Add(1)
		go func(id string, rng *rand.Rand) {
			defer wg.Done()
			cl, err := wire.Dial(addr, 5*time.Second)
			if err == nil {
				err = cl.Hello(id, id+"-secret")
				defer cl.Close()
			}
			for op := 0; err == nil && op < 300; op++ {
				a := uint64(rng.Intn(64)) * oracle.LineBytes
				if rng.Intn(3) == 0 {
					got, rerr := cl.Read(a)
					h.Observe(a, got, rerr)
					continue
				}
				seq, line := h.Invoke(a)
				err = cl.Write(a, line)
				h.Settle(a, seq, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("tenant %s load: %v", id, err)
			} else if h.Tally.Mismatches() != 0 || h.Tally.SpuriousIntegrity != 0 {
				t.Errorf("tenant %s load read what it did not write: %s", id, h.Tally)
			}
		}(id, rand.New(rand.NewSource(seed+int64(i))))
	}
	wg.Wait()
}

// auditTenants reads every line each tenant's history touched back through
// a connection bound to that tenant.
func auditTenants(t *testing.T, addr string, hists map[string]*oracle.History) {
	t.Helper()
	for id, h := range hists {
		cl := bound(t, addr, id)
		if tally := h.Audit(cl.Read); tally.Bad() != 0 || tally.Reads == 0 {
			t.Errorf("tenant %s read-back: %s", id, tally)
		}
		cl.Close()
	}
}

// auditProof fetches a PROOF of one of each tenant's lines and checks it
// names the line's global address and carries a root the server's signed
// log attests.
func auditProof(t *testing.T, addr string) {
	t.Helper()
	sh, err := shard.New(shard.Config{Shards: 2, Mem: secmem.Config{MemoryBytes: 131072, Enc: counters.MorphSpec(true),
		Tree: []counters.Spec{counters.MorphSpec(true)}, Key: []byte("0123456789abcdef")}, Tenants: composeTenants})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range composeTenants {
		cl := bound(t, addr, id)
		ri, err := cl.Root()
		if err != nil {
			t.Fatal(err)
		}
		if err := proof.VerifyHead(ri.Pub, ri.Head); err != nil {
			t.Errorf("tenant %s: the root log's head: %v", id, err)
		}
		p, err := cl.Proof(oracle.LineBytes)
		if err != nil {
			t.Fatalf("tenant %s proof: %v", id, err)
		}
		base, _, _ := sh.TenantRange(id)
		if p.Addr != base+oracle.LineBytes {
			t.Errorf("tenant %s: proof of its line 1 names %#x, want %#x", id, p.Addr, base+oracle.LineBytes)
		}
		if proof.RootDigest(int(p.Shard), p.Root) != p.ShardRoots[p.Shard] {
			t.Errorf("tenant %s: the proof's root is not its shard's digest", id)
		}
		if err := proof.VerifyAttestation(ri.Pub, p.Epoch, proof.CombineRoots(p.ShardRoots), p.Attestation); err != nil {
			t.Errorf("tenant %s: proof attestation: %v", id, err)
		}
		cl.Close()
	}
}

// TestServeTenantsCompose: -tenants composes with -data-dir (with and without
// background deltas), -admin and -cluster. Each row runs a seeded HELLO-bound
// load per tenant, stops gracefully, restarts on the same directory (the
// cluster row: both nodes on theirs, each with an admin plane whose /clusterz
// says when the replica has caught up, the replica re-bootstrapping from the
// primary's snapshot) and reads every tenant's lines back through the oracle.
// The cluster row also reads each node's /tracez: one registry carries the
// events of the server, cluster and durable layers alike.
func TestServeTenantsCompose(t *testing.T) {
	for _, row := range []struct {
		name    string
		args    []string
		cluster bool
	}{
		{"data-dir", nil, false},
		{"data-dir_delta-every", []string{"-fsync", "interval", "-delta-every", "1ms"}, false},
		{"admin", []string{"-admin", "127.0.0.1:0"}, false},
		{"cluster", []string{"-cluster"}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			tenants := tenantConfig(t, dir, composeTenants...)
			args := func(data string) []string {
				a := append(append([]string{"-tenants", tenants, "-data-dir", filepath.Join(dir, data)}, composeArgs...), row.args...)
				if row.cluster {
					a = append(a, "-admin", "127.0.0.1:0")
				}
				return a
			}
			addr, primaryAdmin, stop := startServe(t, "127.0.0.1:0", args("primary")...)
			var replica, replicaAdmin string
			stopReplica := func() error { return nil }
			if row.cluster {
				replica, replicaAdmin, stopReplica = startServe(t, "127.0.0.1:0", append(args("replica"), "-cluster-join", addr)...)
			}
			caughtUp := func() { waitCaughtUp(t, primaryAdmin, replicaAdmin, replica) }
			hists := map[string]*oracle.History{}
			tenantLoad(t, addr, 37, hists)
			if row.name == "admin" {
				auditProof(t, addr)
			}
			if row.cluster {
				caughtUp()
				for admin, kinds := range map[string][]string{
					primaryAdmin: {"tenant_bind"},             // server layer
					replicaAdmin: {"repl_batch", "wal_fsync"}, // cluster and durable layers
				} {
					counts := tracez(t, admin)
					for _, kind := range kinds {
						if counts[kind] == 0 {
							t.Errorf("%s/tracez holds no %s event: %v", admin, kind, counts)
						}
					}
				}
			}
			if err := stopReplica(); err != nil {
				t.Fatalf("replica stop: %v", err)
			}
			if err := stop(); err != nil {
				t.Fatalf("stop: %v", err)
			}

			// The restarted replica rejoins through a snapshot of the
			// primary's, so it has caught up once it holds the writes after
			// the restart too.
			addr, primaryAdmin, _ = startServe(t, addr, args("primary")...)
			if row.cluster {
				replica, replicaAdmin, _ = startServe(t, replica, append(args("replica"), "-cluster-join", addr)...)
			}
			tenantLoad(t, addr, 43, hists)
			if row.cluster {
				caughtUp()
			}
			auditTenants(t, addr, hists)
			if row.name == "admin" {
				auditProof(t, addr)
			}
		})
	}
}

// clusterz fetches a node's cluster view from its admin plane.
func clusterz(admin string) (*cluster.RouteInfo, error) {
	resp, err := http.Get("http://" + admin + "/clusterz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/clusterz: %s", resp.Status)
	}
	var ri cluster.RouteInfo
	return &ri, json.NewDecoder(resp.Body).Decode(&ri)
}

// tracez fetches the per-kind event counts of a node's trace ring from its
// admin plane.
func tracez(t *testing.T, admin string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counts
}

// waitCaughtUp waits until the replica's durable marks, as its admin plane
// reports them, cover the primary's, then has the replica verify every line
// it holds. A plane not yet listening is asked again.
func waitCaughtUp(t *testing.T, primaryAdmin, replicaAdmin, replica string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		pr, err := clusterz(primaryAdmin)
		var rr *cluster.RouteInfo
		if err == nil {
			rr, err = clusterz(replicaAdmin)
		}
		if err == nil && slices.Equal(pr.Marks, rr.Marks) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the replica never caught up: %v (%+v, %+v)", err, pr, rr)
		}
	}
	rc := bound(t, replica, composeTenants[0])
	defer rc.Close()
	if err := rc.Verify(); err != nil {
		t.Fatalf("replica verify: %v", err)
	}
}

// TestServeTenantsRestartLists: a tenant store restarts under the same ids in
// another order and serves every line; under another list — a tenant
// dropped, or none at all — serve refuses it naming -tenants, with a
// *shard.MismatchError, not an integrity error.
func TestServeTenantsRestartLists(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	args := func(extra ...string) []string {
		return append(append([]string{"-data-dir", data}, composeArgs...), extra...)
	}
	addr, _, stop := startServe(t, "127.0.0.1:0", args("-tenants", tenantConfig(t, dir, composeTenants...))...)
	hists := map[string]*oracle.History{}
	tenantLoad(t, addr, 41, hists)
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	t.Run("reordered", func(t *testing.T) {
		addr, _, stop := startServe(t, "127.0.0.1:0", args("-tenants", tenantConfig(t, dir, "gamma", "alpha", "beta"))...)
		auditTenants(t, addr, hists)
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("other-list", func(t *testing.T) {
		for _, extra := range [][]string{{"-tenants", tenantConfig(t, dir, "alpha", "beta")}, nil} {
			o, err := parseAndValidate(t, args(extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) // serving it is the failure
			err = serve(ctx, o, ln, nil)
			cancel()
			ln.Close()
			var me *shard.MismatchError
			var ie *secmem.IntegrityError
			if err == nil || !strings.Contains(err.Error(), "-tenants") || !errors.As(err, &me) || me.Field != "tenants" || errors.As(err, &ie) {
				t.Errorf("restart with %q: %v, want a tenants mismatch naming -tenants", extra, err)
			}
		}
	})
}
