// Package npb sits in the determinism analyzer's scope and reads the host
// clock under a reasoned suppression.
package npb

import "time"

// Seed reads the wall clock; the ignore below excuses it.
func Seed() int64 {
	//simlint:ignore determinism the seed only names a temporary directory, never a counter
	return time.Now().UnixNano()
}
