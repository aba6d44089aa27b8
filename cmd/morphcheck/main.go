// Command morphcheck is the system-level harness: three schedule generators
// over one shadow model (internal/oracle), each a subcommand whose exit status
// is its result.
//
//	morphcheck crash    kill-point surgery on a durable store's files, each
//	                    clone recovered and audited against the journal prefix
//	                    that survived; tamper probes; the recovery curve
//	                    (crash.go)
//	morphcheck chaos    clients against a server whose listener injects a
//	                    seeded fault matrix: cuts, stalls, chopped frames,
//	                    admission sheds (chaos.go)
//	morphcheck cluster  a three-node loopback cluster with a node killed
//	                    mid-load and lease-expiry failover (cluster.go)
//
// All three defend the same two claims. The paper's: nothing but tampering
// ever raises *secmem.IntegrityError, and tampering always does. Ours: no
// acknowledged write is lost across a crash, a fault or a failover. The
// oracle says what a line may hold; the subcommands only decide what happens
// to the system between the write and the read-back.
//
// Every schedule derives from -seed, so a failing row names the run that
// reproduces it. A row is printed as it completes; a failing row goes to
// standard error as well. morphcheck gates, it does not measure: what an
// operation costs is bench/morphbench's to say.
//
// Usage:
//
//	morphcheck crash -points 24 -writes 600 -shards 4 -mem 262144 -seed 1
//	morphcheck chaos [-smoke] [-seed 7]
//	morphcheck cluster [-smoke] [-seed 7]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
)

const lineBytes = secmem.LineBytes

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "morphcheck: %v\n", err)
		os.Exit(1)
	}
}

// run is main without the process: a subcommand name, its flags, and where
// rows go.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: morphcheck crash|chaos|cluster [flags]")
	}
	sub := args[0]
	fs := flag.NewFlagSet("morphcheck "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "schedule seed; a failing run replays with the same seed")
	rows := &rows{sub: sub, out: stdout, err: stderr}
	var err error
	switch sub {
	case "crash":
		points := fs.Int("points", 24, "crash points across the append and checkpoint windows (the rotate window adds an eighth)")
		writes := fs.Int("writes", 600, "workload size in acknowledged writes")
		shards := fs.Int("shards", 4, "shard count")
		mem := fs.Uint64("mem", 256<<10, "protected capacity in bytes")
		org := fs.String("org", "morph128", "counter organization")
		if err = fs.Parse(args[1:]); err != nil {
			return err
		}
		var shcfg shard.Config
		if shcfg, err = shardConfig(*org, *shards, *mem); err == nil {
			err = crash(rows, shcfg, *points, *writes, *seed)
		}
	case "chaos", "cluster":
		smoke := fs.Bool("smoke", false, "reduced matrix for CI")
		if err = fs.Parse(args[1:]); err != nil {
			return err
		}
		if sub == "chaos" {
			err = chaos(rows, chaosMatrix(*seed, *smoke), *seed)
		} else {
			err = clusterChaos(rows, clusterMatrix(*smoke), *seed)
		}
	default:
		err = fmt.Errorf("unknown subcommand %q (want crash, chaos or cluster)", sub)
	}
	if err != nil {
		return err
	}
	return rows.verdict()
}

// rows is the one row printer: a line per result on out, failing ones on err
// too, and the count of failures for the exit status.
type rows struct {
	sub      string
	out, err io.Writer
	n, bad   int
}

// add prints one result; fail == nil is a pass.
func (r *rows) add(name, text string, fail error) {
	r.n++
	status := "ok"
	if fail != nil {
		r.bad++
		status = "FAIL " + fail.Error()
		fmt.Fprintf(r.err, "morphcheck %s: %s: %s — %s\n", r.sub, name, text, status)
	}
	fmt.Fprintf(r.out, "morphcheck %s: %-20s %s — %s\n", r.sub, name, text, status)
}

func (r *rows) verdict() error {
	if r.bad > 0 {
		return fmt.Errorf("%s: %d of %d rows failed", r.sub, r.bad, r.n)
	}
	fmt.Fprintf(r.out, "morphcheck %s: PASS, %d rows\n", r.sub, r.n)
	return nil
}

// shardConfig is the engine every subcommand builds: the named counter
// organization under the fixed demo key.
func shardConfig(org string, shards int, mem uint64) (shard.Config, error) {
	enc, tree, err := shard.Organization(org)
	if err != nil {
		return shard.Config{}, err
	}
	return shard.Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: mem,
			Enc:         enc,
			Tree:        tree,
			Key:         []byte("0123456789abcdef"),
		},
	}, nil
}

// serve runs one wire server over eng on every listener in lns, so they
// share its connection cap and admission gate. stop cancels it, waits for
// the drain, and returns what ended it other than the cancellation.
func serve(eng server.Engine, cfg server.Config, lns ...net.Listener) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := server.New(eng, cfg)
	done := make(chan error, len(lns))
	for _, ln := range lns {
		go func() { done <- srv.Serve(ctx, ln) }()
	}
	return func() error {
		cancel()
		var errs []error
		for range lns {
			if err := <-done; !errors.Is(err, context.Canceled) {
				errs = append(errs, fmt.Errorf("server shutdown: %w", err))
			}
		}
		return errors.Join(errs...)
	}
}
