//go:build race

package dnssrv

// raceEnabled reports that the race detector is active. It makes
// sync.Pool drop items at random, so pooled-path allocation gates skip.
const raceEnabled = true
