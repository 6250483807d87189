package npb

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/omp"
)

// checkRunKey requires RunKey to equal its oracle, the reflective key.
func checkRunKey(t *testing.T, what string, kernel string, cfg RunConfig) {
	t.Helper()
	if got, want := RunKey(kernel, cfg), memo.MustKey("npb/run", kernel, cfg); got != want {
		t.Errorf("%s: RunKey %s, memo.MustKey %s", what, got, want)
	}
}

// TestRunKeyMatchesKeyOf: the hand-written encoding hashes to the reflective
// key on every golden config, on every built-in model across its thread,
// policy and barrier space, on strings json must escape, and on ClockGHz
// values either side of json's float-format boundaries.
func TestRunKeyMatchesKeyOf(t *testing.T) {
	for _, c := range goldenSpace(t) {
		checkRunKey(t, c.String(), c.kernel, c.cfg)
	}
	for _, m := range machine.AllModels() {
		for _, k := range Names() {
			for n := 1; n <= m.MaxThreads(); n++ {
				for _, p := range []core.PagePolicy{core.Policy4K, core.Policy2M, core.PolicyMixed, core.PolicyTransparent} {
					for _, b := range goldenBarriers {
						cfg := RunConfig{Model: m, Threads: n, Policy: p, Class: ClassS, Barrier: b}
						checkRunKey(t, m.Name, k, cfg)
					}
				}
			}
		}
	}

	base := RunConfig{Model: machine.XeonHT(), Threads: 4, Policy: core.Policy2M, Iterations: 3, Barrier: omp.TreeBarrier}
	for _, s := range []string{
		"", "plain", `quote"`, `back\slash`, "a<b", "a>b", "a&b", "new\nline", "tab\t", "\x00\x1f",
		"del\x7f", "é", "snow☃", "  ", "bad\xffutf8", "\xe2\x82",
	} {
		cfg := base
		cfg.Model.Name = s
		cfg.Model.DTLB.Name = s + "-dtlb"
		checkRunKey(t, "string "+s, s, cfg)
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.1, 1.2, 2, 1e-7, -1e-7, 1.23456e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 999999999999999999999, 5e-324, math.MaxFloat64, 1e-300, 123456789.125,
	} {
		cfg := base
		cfg.Model.Costs.ClockGHz = f
		checkRunKey(t, "ClockGHz", "CG", cfg)
	}
}

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
// whole machine.Model included — changes the key, and the changed config
// still keys as memo.MustKey does; setting Ctx changes nothing.
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
		checkRunKey(t, path, "CG", base)
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

var runKeySink string

// TestRunKeyAllocs: a key costs at most two allocations (the returned string
// takes one).
func TestRunKeyAllocs(t *testing.T) {
	cfg := RunConfig{Model: machine.XeonHT(), Threads: 8, Policy: core.Policy2M, Class: ClassS}
	if n := testing.AllocsPerRun(100, func() { runKeySink = RunKey("CG", cfg) }); n > 2 {
		t.Errorf("RunKey makes %.0f allocations, want at most 2", n)
	}
}

// FuzzRunKey sets RunConfig's leaf fields from the fuzzer's bytes, in
// declared order — eight bytes per integer or float, one per byte-sized
// field or bool, a length byte and that many bytes per string — and
// requires RunKey to equal memo.KeyOf, or both to refuse the config.
func FuzzRunKey(f *testing.F) {
	f.Add("CG", []byte{})
	f.Add("cg", []byte("\x0bXeon<&>\"HT\xff\x02\x00\x00\x00\x00\x00\x00\x00"))
	f.Add("MG ", binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(1.23456e-7)))
	f.Fuzz(func(t *testing.T, kernel string, data []byte) {
		cfg := RunConfig{Model: machine.Opteron270()}
		runKeyLeaves(t, reflect.ValueOf(&cfg).Elem(), "", func(_ string, v reflect.Value) {
			fillLeaf(v, &data)
		})
		want, err := memo.KeyOf("npb/run", kernel, cfg)
		if err != nil {
			if !runKeyPanics(kernel, cfg) {
				t.Fatalf("memo.KeyOf refused the config (%v) but RunKey keyed it", err)
			}
			return
		}
		if got := RunKey(kernel, cfg); got != want {
			t.Fatalf("RunKey %s, memo.KeyOf %s for %+v", got, want, cfg)
		}
	})
}

// fillLeaf overwrites v from the front of *data while bytes remain.
func fillLeaf(v reflect.Value, data *[]byte) {
	if len(*data) == 0 {
		return
	}
	take := func(n int) []byte {
		var b [8]byte
		m := copy(b[:n], *data)
		*data = (*data)[m:]
		return b[:n]
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(take(1)[0]&1 == 1)
	case reflect.Uint8:
		v.SetUint(uint64(take(1)[0]))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(binary.LittleEndian.Uint64(take(8))))
	case reflect.Uint64:
		v.SetUint(binary.LittleEndian.Uint64(take(8)))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(take(8))))
	case reflect.String:
		n := min(int(take(1)[0]), len(*data))
		v.SetString(string((*data)[:n]))
		*data = (*data)[n:]
	}
}

// BenchmarkRunKey reports the cost of keying one run (ns/op, allocs/op); it
// enforces no floor.
func BenchmarkRunKey(b *testing.B) {
	cfg := RunConfig{Model: machine.XeonHT(), Threads: 8, Policy: core.Policy2M, Class: ClassS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runKeySink = RunKey("CG", cfg)
	}
}
