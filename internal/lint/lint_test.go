package lint

import (
	"testing"

	"github.com/securemem/morphtree/internal/analysis/analysistest"
)

func TestCachelineInv(t *testing.T) {
	analysistest.Run(t, "testdata", CachelineInv, "counters", "other")
}

func TestCryptoRand(t *testing.T) {
	analysistest.Run(t, "testdata", CryptoRand, "mac", "plainpkg")
}

func TestErrDiscard(t *testing.T) {
	analysistest.Run(t, "testdata", ErrDiscard, "secmem", "wal", "fault", "obs", "server", "shard", "proof", "tenant", "cluster")
}

func TestPanicPolicy(t *testing.T) {
	analysistest.Run(t, "testdata", PanicPolicy, "panics", "mainpkg", "invariant")
}

func TestLockHeld(t *testing.T) {
	analysistest.Run(t, "testdata", LockHeld, "locked", "limiter", "obsreg", "sched", "clusterlock")
}

func TestKeyTaint(t *testing.T) {
	analysistest.Run(t, "testdata", KeyTaint, "keymat", "keyuse", "signer")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", LockOrder, "locks", "locka", "lockb")
}
