// Package machine sits in the determinism analyzer's scope (its import path
// ends in internal/machine) and reads the host clock: one planted finding.
package machine

import "time"

// Stamp reads the wall clock inside a simulator package.
func Stamp() int64 {
	return time.Now().UnixNano()
}
