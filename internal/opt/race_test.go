//go:build race

package opt

// raceEnabled reports a -race build, under which sync.Pool drops entries at
// random, so allocation counts of pooled paths are not meaningful.
const raceEnabled = true
