package counters

// Analytic "time to overflow" models behind Figures 6 and 10: the number of
// writes a counter cacheline tolerates before its first overflow, assuming
// uniform round-robin writes to a fixed fraction of the line's counters.

// SplitWritesToOverflow returns the number of writes a split-counter line
// with the given arity tolerates before an overflow when `used` of its
// counters receive uniform writes. Each b-bit minor absorbs 2^b - 1
// increments; the next write to any saturated counter overflows, so the
// line tolerates used * 2^b writes (the used*2^b-th write overflows).
func SplitWritesToOverflow(arity, used int) uint64 {
	if used < 1 {
		used = 1
	}
	if used > arity {
		used = arity
	}
	b := MinorBits(arity)
	return uint64(used) << uint(b)
}

// ZCCWritesToOverflow returns the number of uniform writes a MorphCtr-128
// line in ZCC (or, past 64 counters, the dense 3-bit format without
// rebasing) tolerates before an overflow when `used` counters are written.
// ZCC's utility-based sizing gives each of the used counters
// ZCCSize(used) bits, so tolerance is used * 2^size.
func ZCCWritesToOverflow(used int) uint64 {
	if used < 1 {
		used = 1
	}
	if used > MorphArity {
		used = MorphArity
	}
	return uint64(used) << uint(ZCCSize(used))
}

// MCRWritesToOverflow returns the number of uniform round-robin writes a
// MorphCtr-128 line with rebasing tolerates when all 128 counters are used.
// Under uniform writes every minor reaches 7 together, each rebase slides
// the base forward by 7, and overflow is deferred until a base exceeds its
// 7-bit range: roughly 128 counters x 127 base steps of headroom.
func MCRWritesToOverflow() uint64 {
	// Simulate exactly rather than approximate: round-robin writes to all
	// 128 counters until the first overflow event.
	m := NewMorph(true)
	var writes uint64
	for {
		for i := 0; i < MorphArity; i++ {
			writes++
			if ev := m.Increment(i); ev.Overflow {
				return writes
			}
		}
	}
}

// PathologicalZCCWrites returns the length of the paper's worst-case
// adversarial write pattern against MorphCtr-128 (Section V): one write to
// each of 52 counters (forcing 4-bit sizing), then hammering a single
// counter until it overflows. The paper reports 67 writes.
func PathologicalZCCWrites() uint64 {
	m := NewMorph(true)
	var writes uint64
	for i := 0; i < 52; i++ {
		writes++
		if ev := m.Increment(i); ev.Overflow {
			return writes
		}
	}
	for {
		writes++
		if ev := m.Increment(0); ev.Overflow {
			return writes
		}
	}
}
