//go:build !amd64

package aesctr

import "github.com/securemem/morphtree/internal/invariant"

// useKernel is false off amd64: every line takes the portable path.
var useKernel = false

func expandKey(int, *byte, *[maxRoundKeyBytes]byte) {
	panic(invariant.Violationf("aesctr: no line kernel on this architecture"))
}

func xorLine(int, *[maxRoundKeyBytes]byte, *[LineBytes]byte, *[LineBytes]byte, uint64, uint64) {
	panic(invariant.Violationf("aesctr: no line kernel on this architecture"))
}
