package lockorder_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/lockorder"
)

func TestLockOrder(t *testing.T) {
	defer func(order string, pkgs []string) {
		lockorder.Order, lockorder.Packages = order, pkgs
	}(lockorder.Order, lockorder.Packages)
	lockorder.Order = "L2.mu < Shard < Cache"
	lockorder.Packages = []string{"a"}

	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "a")
}

// TestHotpathDefer: deferred unlocks in //simlint:hotpath functions are
// reported even in a package outside lockorder.Packages.
func TestHotpathDefer(t *testing.T) {
	defer func(pkgs []string) { lockorder.Packages = pkgs }(lockorder.Packages)
	lockorder.Packages = []string{"a"}

	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "hot")
}
