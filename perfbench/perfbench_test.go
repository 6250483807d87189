package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"hugeomp/internal/npb"
	"hugeomp/internal/simsrv"
)

func TestOpListsAreAFunctionOfTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) ([]*op, error){
		"paper_sweep":   func(seed uint64) ([]*op, error) { return sweepOps(seed, 2) },
		"serve_explore": func(seed uint64) ([]*op, error) { return exploreOps(seed, 2) },
		"serve_replay": func(seed uint64) ([]*op, error) {
			_, list, err := replayOps(seed, 5000)
			return list, err
		},
	}
	for name, gen := range gens {
		a, err := gen(defaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := gen(defaultSeed)
		c, _ := gen(heldOutSeed)
		if listHash(a) != listHash(b) {
			t.Errorf("%s: seed %d gave two different lists", name, defaultSeed)
		}
		if listHash(a) == listHash(c) {
			t.Errorf("%s: seeds %d and %d gave the same list", name, defaultSeed, heldOutSeed)
		}
	}
}

func TestExploreRequestsAreDistinctAndReplayStaysInItsSet(t *testing.T) {
	ops, err := exploreOps(heldOutSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range ops {
		if seen[o.Key] {
			t.Fatalf("serve_explore repeats %.12s: a repeat would be a cache hit", o.Key)
		}
		seen[o.Key] = true
	}
	set, list, err := replayOps(heldOutSeed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	inSet := map[string]bool{}
	for _, o := range set {
		inSet[o.Key] = true
	}
	if len(inSet) != replaySetSize {
		t.Fatalf("replay set has %d distinct configs, want %d", len(inSet), replaySetSize)
	}
	for _, o := range list {
		if !inSet[o.Key] {
			t.Fatalf("replay request %.12s is outside the populated set", o.Key)
		}
	}
}

// The generator's keys must be the server's: the gate checks every answer's
// key against the op's, so a drift would fail every served op.
func TestRequestKeysMatchTheServer(t *testing.T) {
	ops, err := sweepOps(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	explore, err := exploreOps(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := simsrv.NewServer(simsrv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, o := range []*op{ops[0], explore[0]} {
		code, body := post(s.Handler(), o.Body)
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		var resp simsrv.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Key != o.Key {
			t.Errorf("server keyed %s as %.12s, generator as %.12s", o.Body, resp.Key, o.Key)
		}
	}
}

func TestGateCatchesOnePerturbedCounter(t *testing.T) {
	explore, err := exploreOps(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := explore[0]
	res, err := runCold(o)
	if err != nil {
		t.Fatal(err)
	}
	good, err := digestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{o.Key[:digestLen]: good}

	g := newGate(golden)
	g.record(o, good)
	if wrong := g.judge(1); len(wrong) != 0 {
		t.Fatalf("an unperturbed result was judged wrong")
	}

	bad := res
	bad.Counters.DTLBWalks4K++
	d, _ := digestResult(bad)
	g = newGate(golden)
	g.record(o, d)
	if !g.judge(1)[o.Key] {
		t.Errorf("in-process result with one perturbed counter passed the gate")
	}

	// Served form: the first answer against the golden digest, and a later
	// answer that is not byte-identical to the first.
	wire := func(r npb.Result) []byte {
		b, err := json.Marshal(simsrv.Response{Key: o.Key, Cached: true, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	g = newGate(golden)
	if err := g.answer(o, wire(bad)); err != nil {
		t.Fatal(err)
	}
	if !g.judge(1)[o.Key] {
		t.Errorf("served answer with one perturbed counter passed the gate")
	}
	g = newGate(golden)
	if err := g.answer(o, wire(res)); err != nil {
		t.Fatal(err)
	}
	if err := g.answer(o, wire(bad)); err != nil {
		t.Fatal(err)
	}
	if !g.judge(1)[o.Key] {
		t.Errorf("a repeat answer differing in one counter passed the gate")
	}

	// Off the golden file, the reference is a cold run.
	g = newGate(nil)
	g.record(o, d)
	if !g.judge(1)[o.Key] {
		t.Errorf("perturbed result passed against a cold run")
	}
}

// Every digest the golden file holds for the generators' ops must be what a
// cold run of that op produces now.
func TestGoldenCoversEveryGeneratedOp(t *testing.T) {
	golden, err := parseGolden(goldenTxt)
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := sweepOps(heldOutSeed, 1)
	explore, _ := exploreOps(heldOutSeed, 2)
	set, _, _ := replayOps(heldOutSeed, 1)
	for _, list := range [][]*op{sweep, explore, set, splitVariants(explore[0])} {
		for _, o := range list {
			if _, ok := golden[o.Key[:digestLen]]; !ok {
				t.Fatalf("golden file lacks %s", o.Body)
			}
		}
	}
	for _, o := range []*op{sweep[0], explore[0], set[0]} {
		d, err := coldDigest(o)
		if err != nil {
			t.Fatal(err)
		}
		if golden[o.Key[:digestLen]] != d {
			t.Errorf("cold run of %s digests to %s, golden file says %s", o.Body, d, golden[o.Key[:digestLen]])
		}
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	ph := phase{wall: time.Second, lat: []float64{1, 2, 3}}
	printed := map[string]map[string]metric{
		"end_to_end": e2eMetrics(1, ph, 3, 10),
		"per_layer":  layerMetrics(nil, newGate(nil), newSpans(), &coverage{}, serverDelta{}, ph, ph),
	}
	for kind, declared := range map[string][]struct{ Name, Unit string }{"end_to_end": b.EndToEnd, "per_layer": b.PerLayer} {
		units := map[string]string{}
		for _, m := range declared {
			if !validName.MatchString(m.Name) || !validUnit.MatchString(m.Unit) {
				t.Errorf("%s metric %q (unit %q) has an invalid name or unit", kind, m.Name, m.Unit)
			}
			units[m.Name] = m.Unit
		}
		for name, m := range printed[kind] {
			if u, ok := units[name]; !ok {
				t.Errorf("%s metric %s is printed but not in BENCHMARK.json", kind, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %s prints unit %q, BENCHMARK.json says %q", kind, name, m.Unit, u)
			}
		}
		if len(printed[kind]) != len(units) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(printed[kind]), len(units))
		}
	}
}
