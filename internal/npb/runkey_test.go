package npb

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
)

// runKeyLeaves calls fn on every leaf field of the struct v, depth first in
// declared order, with its dotted path. Ctx and Fault are not leaves of the
// key: Ctx is excluded from it, and RunKey refuses a fault plan. A field of
// any other kind fails the test, so a new field cannot escape the key tests.
func runKeyLeaves(t testing.TB, v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, p := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			runKeyLeaves(t, f, p+".", fn)
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint8, reflect.Uint64, reflect.Float64, reflect.String:
			fn(p, f)
		default:
			if p != "Ctx" && p != "Fault" {
				t.Fatalf("RunConfig.%s is a %s; the RunKey tests cannot vary it", p, f.Kind())
			}
		}
	}
}

// TestRunKeyCoversEveryField: changing any one leaf field of RunConfig — the
// whole machine.Model included — changes the key; setting Ctx changes
// nothing.
func TestRunKeyCoversEveryField(t *testing.T) {
	base := RunConfig{Model: machine.Opteron270(), Threads: 2, Policy: core.Policy2M, Class: ClassT}
	want := RunKey("CG", base)
	n := 0
	runKeyLeaves(t, reflect.ValueOf(&base).Elem(), "", func(path string, f reflect.Value) {
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.String:
			f.SetString(f.String() + "x")
		}
		if RunKey("CG", base) == want {
			t.Errorf("changing %s leaves the key unchanged", path)
		}
		f.Set(old)
		n++
	})
	if RunKey("CG", base) != want {
		t.Fatal("restoring every field did not restore the key")
	}
	if n < 50 {
		t.Errorf("visited %d leaf fields; the walk lost part of RunConfig", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := base
	withCtx.Ctx = ctx
	if RunKey("CG", withCtx) != want {
		t.Error("setting Ctx changed the key")
	}
}

// TestRunKeyRefuses: a fault plan is not part of the key, so RunKey refuses
// to key a run that has one rather than alias two plans; and, like
// memo.MustKey, it refuses a ClockGHz JSON cannot encode.
func TestRunKeyRefuses(t *testing.T) {
	cfg := RunConfig{Model: machine.Opteron270(), Threads: 1, Fault: faultinject.New(7)}
	if !runKeyPanics("CG", cfg) {
		t.Error("RunKey keyed a run with a fault plan")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := RunConfig{Model: machine.Opteron270()}
		cfg.Model.Costs.ClockGHz = f
		if !runKeyPanics("CG", cfg) {
			t.Errorf("RunKey keyed ClockGHz %v", f)
		}
	}
}

func runKeyPanics(kernel string, cfg RunConfig) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	RunKey(kernel, cfg)
	return false
}
