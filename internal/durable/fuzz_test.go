package durable

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
)

// FuzzTenantsBody feeds parseTenants whatever a TENANTS body could hold. An
// input decodes to a list that tenantsBody encodes back to the same bytes, or
// is refused as an *secmem.IntegrityError; it never panics, and what a decode
// allocates is bounded by the input's length. The bound is read off the
// process-wide allocation counter, which the fuzz worker's own allocations
// also move, so the least of three decodes of the same input is held to it.
func FuzzTenantsBody(f *testing.F) {
	f.Add(tenantsBody([]string{"alpha", "beta", "gamma"}))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 1, 'b', 1, 'a'})         // out of order
	f.Add([]byte{1, 0x81, 0, 'a'})           // a padded length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 7}) // a count no bytes back
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			ids  []string
			err  error
			grew uint64
		)
		bound := 32*uint64(len(body)) + 4096
		for try := 0; try < 3 && (try == 0 || grew > bound); try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ids, err = parseTenants(body)
			runtime.ReadMemStats(&after)
			if try == 0 || after.TotalAlloc-before.TotalAlloc < grew {
				grew = after.TotalAlloc - before.TotalAlloc
			}
		}
		if !racedetect.Enabled && grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			if !isIntegrityError(err) {
				t.Fatalf("refused with %T (%v), want a *secmem.IntegrityError", err, err)
			}
			return
		}
		if re := tenantsBody(ids); !bytes.Equal(re, body) {
			t.Fatalf("%q decodes to %q, which encodes to %q", body, ids, re)
		}
	})
}
