package lockorder_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/lockorder"
)

func TestLockOrder(t *testing.T) {
	defer func(order string) { lockorder.Order = order }(lockorder.Order)
	lockorder.Order = "L2.mu < Shard, Bank < Cache"

	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "a")
}
