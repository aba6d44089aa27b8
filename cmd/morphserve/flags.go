package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/shard"
)

// options carries every morphserve flag plus the values resolved from
// them during validation. Parsing and validation are separated from main
// so every refusal path is a returned error with an actionable message —
// testable without exec'ing the binary — instead of a log.Fatalf buried
// in wiring code.
type options struct {
	addr         string
	org          string
	shards       int
	mem          uint64
	keyHex       string
	maxConns     int
	maxInflight  int
	shedWait     time.Duration
	timeout      time.Duration
	frameTimeout time.Duration
	tamper       bool
	dataDir      string
	fsyncMode    string
	snapEvery    time.Duration
	deltaEvery   time.Duration
	tenants      string
	admin        string
	signSeed     string

	// Cluster flags. -cluster turns the node into a replication member;
	// -cluster-join names the leader to follow (absent = start as the
	// primary); -cluster-peers is the static membership used for failover
	// catch-up donor pulls.
	cluster      bool
	clusterSelf  string
	clusterJoin  string
	clusterPeers string
	clusterLease time.Duration
	clusterAck   int

	// Resolved during validate.
	key   []byte
	seed  []byte // transparency-log signing seed ("" flag → derived later)
	sync  durable.SyncPolicy
	enc   counters.Spec
	tree  []counters.Spec
	peers []string
}

// parseFlags parses args (without the program name) into options. Flag
// syntax errors come back as errors, not os.Exit.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("morphserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7443", "listen address")
	fs.StringVar(&o.org, "org", "morph128", "counter organization: sc64, sc128, vault, morph128, morph128-zcc")
	fs.IntVar(&o.shards, "shards", 0, "shard count (0 = GOMAXPROCS)")
	fs.Uint64Var(&o.mem, "mem", 4<<20, "total protected capacity in bytes")
	fs.StringVar(&o.keyHex, "key", "", "AES master key in hex (16/24/32 bytes; default is a fixed demo key)")
	fs.IntVar(&o.maxConns, "max-conns", 256, "concurrent connection cap (excess sheds with BUSY)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "concurrently executing request cap (0 = 4x GOMAXPROCS); excess sheds with BUSY")
	fs.DurationVar(&o.shedWait, "shed-wait", 10*time.Millisecond, "how long a request may wait for an in-flight slot before being shed")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "idle read / response write deadline")
	fs.DurationVar(&o.frameTimeout, "frame-timeout", 5*time.Second, "slow-loris bound: a started request frame must complete within this")
	fs.BoolVar(&o.tamper, "tamper", false, "enable the wire-level TAMPER op (adversary interface, demos only)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory (empty = volatile, no persistence)")
	fs.StringVar(&o.fsyncMode, "fsync", "always", "WAL fsync policy with -data-dir: always, interval, none")
	fs.DurationVar(&o.snapEvery, "snapshot-every", time.Minute, "periodic checkpoint interval with -data-dir (0 disables)")
	fs.DurationVar(&o.deltaEvery, "delta-every", 0, "background incremental-checkpoint interval with -data-dir (0 disables); deltas persist only dirty lines and compact to a full snapshot when the chain grows")
	fs.StringVar(&o.tenants, "tenants", "", "tenant config file (JSON array of specs); enables multi-tenant mode: HELLO-bound connections, per-tenant address ranges and key domains, weighted fair admission. A -data-dir store keeps the tenant set it was created with and refuses another")
	fs.StringVar(&o.admin, "admin", "", "admin telemetry listen address serving /metricz /tracez /healthz /rootz and pprof (empty = disabled)")
	fs.StringVar(&o.signSeed, "sign-seed", "", "transparency-log Ed25519 signing seed in hex (32 bytes; default derives one from the master key)")
	fs.BoolVar(&o.cluster, "cluster", false, "serve as a replication cluster node (requires -data-dir)")
	fs.StringVar(&o.clusterSelf, "cluster-self", "", "address this node advertises to the cluster (default: the bound -addr)")
	fs.StringVar(&o.clusterJoin, "cluster-join", "", "leader address to follow as a replica (empty = start as the primary)")
	fs.StringVar(&o.clusterPeers, "cluster-peers", "", "comma-separated peer addresses used as catch-up donors during failover")
	fs.DurationVar(&o.clusterLease, "cluster-lease", time.Second, "primary lease: a replica refuses promotion until this long after its last leader contact")
	fs.IntVar(&o.clusterAck, "cluster-ack", 0, "replicas that must cover a write before it is acknowledged (0 = ack on local durability)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected positional arguments %q (morphserve takes flags only)", fs.Args())
	}
	return o, nil
}

// validate cross-checks the flag set and resolves derived values. Every
// error names the offending flag and says what to do instead.
func (o *options) validate() error {
	o.key = []byte("0123456789abcdef")
	if o.keyHex != "" {
		k, err := hex.DecodeString(o.keyHex)
		if err != nil {
			return fmt.Errorf("-key: %v (pass the AES key as hex, e.g. -key 00112233445566778899aabbccddeeff)", err)
		}
		switch len(k) {
		case 16, 24, 32:
		default:
			return fmt.Errorf("-key: %d bytes; an AES key must be 16, 24, or 32 bytes", len(k))
		}
		o.key = k
	}

	var err error
	if o.enc, o.tree, err = shard.Organization(o.org); err != nil {
		return fmt.Errorf("-org: %v", err)
	}
	if o.mem == 0 {
		return fmt.Errorf("-mem: protected capacity must be > 0 bytes")
	}

	if o.signSeed != "" {
		s, err := hex.DecodeString(o.signSeed)
		if err != nil {
			return fmt.Errorf("-sign-seed: %v (pass 32 bytes of hex)", err)
		}
		if len(s) != 32 {
			return fmt.Errorf("-sign-seed: %d bytes; an Ed25519 seed must be exactly 32 bytes", len(s))
		}
		o.seed = s
	}

	if o.sync, err = durable.ParseSyncPolicy(o.fsyncMode); err != nil {
		return fmt.Errorf("-fsync: %v", err)
	}

	if o.dataDir == "" && o.deltaEvery != 0 {
		return fmt.Errorf("-delta-every has no effect without -data-dir: there is nothing to checkpoint; add -data-dir <dir> or drop it")
	}
	if o.snapEvery < 0 {
		return fmt.Errorf("-snapshot-every must be >= 0 (got %v); 0 disables periodic snapshots", o.snapEvery)
	}
	for _, f := range []struct {
		name     string
		negative bool
		value    any
	}{
		{"-max-conns", o.maxConns < 0, o.maxConns},
		{"-max-inflight", o.maxInflight < 0, o.maxInflight},
		{"-shed-wait", o.shedWait < 0, o.shedWait},
		{"-timeout", o.timeout < 0, o.timeout},
		{"-frame-timeout", o.frameTimeout < 0, o.frameTimeout},
	} {
		if f.negative {
			return fmt.Errorf("%s must be >= 0 (got %v); 0 takes the default", f.name, f.value)
		}
	}
	if o.deltaEvery < 0 {
		return fmt.Errorf("-delta-every must be >= 0 (got %v); 0 disables background delta checkpoints", o.deltaEvery)
	}

	if o.cluster {
		if o.dataDir == "" {
			return fmt.Errorf("-cluster requires -data-dir: replication streams the durable WAL, so a cluster node must journal writes (add -data-dir <dir>)")
		}
		if o.clusterJoin != "" && o.clusterJoin == o.clusterSelf {
			return fmt.Errorf("-cluster-join %s is this node's own -cluster-self address; a replica cannot follow itself", o.clusterJoin)
		}
		if o.clusterLease <= 0 {
			return fmt.Errorf("-cluster-lease must be positive: the lease is the failover safety window (got %v)", o.clusterLease)
		}
		if o.clusterAck < 0 {
			return fmt.Errorf("-cluster-ack must be >= 0 (got %d)", o.clusterAck)
		}
		for _, p := range strings.Split(o.clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				o.peers = append(o.peers, p)
			}
		}
	} else {
		for flagName, set := range map[string]bool{
			"-cluster-self":  o.clusterSelf != "",
			"-cluster-join":  o.clusterJoin != "",
			"-cluster-peers": o.clusterPeers != "",
			"-cluster-ack":   o.clusterAck != 0,
		} {
			if set {
				return fmt.Errorf("%s has no effect without -cluster; add -cluster or drop it", flagName)
			}
		}
	}
	return nil
}
