//go:build !amd64

package mac

import "github.com/securemem/morphtree/internal/invariant"

// useKernel is false off amd64: every MAC takes the portable path.
var useKernel = false

func expandKey128(*[subKeyBytes]byte, *[roundKeyBytes]byte) {
	panic(invariant.Violationf("mac: no line kernel on this architecture"))
}

func initPowers(*[powerTableBytes]byte, *[blockBytes]byte) {
	panic(invariant.Violationf("mac: no line kernel on this architecture"))
}

func lineMAC(*[powerTableBytes]byte, *[blockBytes]byte, *[roundKeyBytes]byte, *[2 * blockBytes]byte, []byte, *[2 * blockBytes]byte, int) uint64 {
	panic(invariant.Violationf("mac: no line kernel on this architecture"))
}
