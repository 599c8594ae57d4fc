package reach

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/geom"
	"repro/internal/lti"
)

// The precomputed Analysis tables cost O(horizon·n³) to build (the power
// table dominates) but are immutable afterwards — every method only reads
// them. Monte-Carlo campaigns construct one detection system per run over
// the same handful of plants, so rebuilding the tables per run wastes the
// bulk of a campaign's wall-clock. Shared memoizes construction per
// (system, inputs, eps, horizon) so each plant pays for its tables once
// per process, with sync.Once semantics under concurrent access (the
// parallel campaign workers all hit the cache at run start).

type sharedKey struct {
	sys     *lti.System
	horizon int
	eps     float64
	inputs  string // canonical bit-exact encoding of the input box bounds
}

type sharedEntry struct {
	once sync.Once
	an   *Analysis
	err  error
}

var (
	sharedMu     sync.Mutex
	sharedTables map[sharedKey]*sharedEntry
)

// sharedCap bounds the memo so a long-lived process sweeping many ad-hoc
// plants or horizons cannot grow it without bound; on overflow the whole
// map is dropped (entries already handed out keep working — they are
// plain immutable *Analysis values).
const sharedCap = 128

// Shared returns the memoized Analysis for (sys, u, eps, horizon), building
// it on first use. It is safe for concurrent callers: exactly one builds,
// the rest wait and share the result. The cache keys on the *lti.System
// pointer, so callers must not mutate the system's matrices after first
// use — the same immutability New itself assumes. The returned Analysis is
// read-only and safe to share across goroutines; per-search state lives in
// Stepper values, never in the Analysis.
func Shared(sys *lti.System, u geom.Box, eps float64, horizon int) (*Analysis, error) {
	var b strings.Builder
	for i := 0; i < u.Dim(); i++ {
		iv := u.Interval(i)
		b.WriteString(strconv.FormatFloat(iv.Lo, 'b', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(iv.Hi, 'b', -1, 64))
		b.WriteByte(';')
	}
	key := sharedKey{sys: sys, horizon: horizon, eps: eps, inputs: b.String()}

	sharedMu.Lock()
	if sharedTables == nil {
		sharedTables = make(map[sharedKey]*sharedEntry)
	}
	e, ok := sharedTables[key]
	if !ok {
		if len(sharedTables) >= sharedCap {
			sharedTables = make(map[sharedKey]*sharedEntry)
		}
		e = &sharedEntry{}
		sharedTables[key] = e
	}
	sharedMu.Unlock()

	e.once.Do(func() { e.an, e.err = New(sys, u, eps, horizon) })
	return e.an, e.err
}
