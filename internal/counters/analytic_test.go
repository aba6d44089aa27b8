package counters

import "testing"

func TestSplitWritesToOverflowAnchors(t *testing.T) {
	// Figure 6 anchors: SC-64 overflows every 64 writes worst-case; SC-128
	// in just 8; at full utilization SC-64 tolerates 64x64 = 4096.
	cases := []struct {
		arity, used int
		want        uint64
	}{
		{64, 1, 64},
		{64, 64, 4096},
		{128, 1, 8},
		{128, 128, 1024},
		{64, 0, 64},     // clamped up
		{64, 999, 4096}, // clamped down
	}
	for _, c := range cases {
		if got := SplitWritesToOverflow(c.arity, c.used); got != c.want {
			t.Errorf("SplitWritesToOverflow(%d, %d) = %d, want %d", c.arity, c.used, got, c.want)
		}
	}
}

func TestSplit8xGap(t *testing.T) {
	// "SC-128 design tolerates 8x lesser writes before an overflow
	// compared to SC-64" at the same counter count.
	for u := 1; u <= 64; u++ {
		r := float64(SplitWritesToOverflow(64, u)) / float64(SplitWritesToOverflow(128, u))
		if r != 8 {
			t.Fatalf("SC-64/SC-128 tolerance ratio at %d counters = %v, want 8", u, r)
		}
	}
}

func TestZCCWritesToOverflowAnchors(t *testing.T) {
	cases := []struct {
		used int
		want uint64
	}{
		{1, 1 << 16},    // one 16-bit counter
		{16, 16 << 16},  // 2^20
		{32, 32 << 8},   // 2^13
		{64, 64 << 4},   // 2^10
		{128, 128 << 3}, // 2^10 dense
	}
	for _, c := range cases {
		if got := ZCCWritesToOverflow(c.used); got != c.want {
			t.Errorf("ZCCWritesToOverflow(%d) = %d, want %d", c.used, got, c.want)
		}
	}
}

func TestZCCBeatsSC64WhenSparse(t *testing.T) {
	// Figure 10: ZCC has higher time-to-overflow than SC-64 whenever at
	// most a quarter of the line is used (same fraction of the line).
	for u128 := 1; u128 <= 32; u128++ { // <= 25% of 128
		u64 := (u128 + 1) / 2 // same fraction of a 64-counter line
		zcc := ZCCWritesToOverflow(u128)
		sc := SplitWritesToOverflow(64, u64)
		if zcc <= sc {
			t.Errorf("at %d/128 used: ZCC %d <= SC-64 %d", u128, zcc, sc)
		}
	}
	// And at full utilization ZCC-only tolerates fewer (the dense 3-bit
	// regime), which rebasing then rescues.
	if ZCCWritesToOverflow(128) >= SplitWritesToOverflow(64, 64) {
		t.Error("dense ZCC should tolerate fewer writes than SC-64 at full use")
	}
}

func TestMCRWritesToOverflow(t *testing.T) {
	// Section V: "Morphable counters can tolerate 500+ writes before an
	// overflow, when counters are written uniformly".
	got := MCRWritesToOverflow()
	if got < 500 {
		t.Fatalf("MCR uniform tolerance = %d, want >= 500", got)
	}
	// And must beat the non-rebased dense tolerance by a wide margin.
	if got < 4*ZCCWritesToOverflow(128) {
		t.Fatalf("MCR tolerance %d should be >> dense-reset tolerance %d", got, ZCCWritesToOverflow(128))
	}
}

func TestPathologicalPattern(t *testing.T) {
	// Section V: "a pathological write pattern can cause an overflow in 67
	// writes, by writing once to 52 counters out of 128 ... followed by 15
	// writes to a single counter".
	if got := PathologicalZCCWrites(); got != 67 {
		t.Fatalf("pathological writes = %d, want 67", got)
	}
}

func TestOverflowCurvesShape(t *testing.T) {
	// Figure 6's SC-64 curve is monotone non-decreasing in utilization.
	for u := 2; u <= 64; u++ {
		if SplitWritesToOverflow(64, u) < SplitWritesToOverflow(64, u-1) {
			t.Fatalf("SC-64 curve decreases at %d counters", u)
		}
	}
	// Figure 10's ZCC curve steps down at each sizing boundary (16 -> 17 etc.).
	if ZCCWritesToOverflow(17) >= ZCCWritesToOverflow(16) {
		t.Error("expected sizing step between 16 and 17 counters")
	}
}

func TestAnalyticMatchesSimulatedSplit(t *testing.T) {
	// The analytic formula must agree with driving an actual block with
	// round-robin writes (to within the one-write fencepost the paper's
	// formula uses).
	for _, arity := range []int{64, 128} {
		for _, used := range []int{1, 3, arity / 4, arity} {
			b := SplitSpec(arity).New()
			var writes uint64
		outer:
			for {
				for i := 0; i < used; i++ {
					writes++
					if ev := b.Increment(i); ev.Overflow {
						break outer
					}
				}
			}
			want := SplitWritesToOverflow(arity, used)
			diff := int64(writes) - int64(want)
			if diff < -int64(used) || diff > int64(used) {
				t.Errorf("SC-%d used=%d: simulated %d vs analytic %d", arity, used, writes, want)
			}
		}
	}
}
