//go:build !race

package dnssrv

const raceEnabled = false
