package analysis

import (
	"encoding/json"
	"sort"
	"strings"
)

// A FactStore carries serialized per-function summaries ("facts") across
// package boundaries, which is what turns the per-package analyzers into a
// whole-program analysis:
//
//   - In standalone mode the driver walks the module in dependency order
//     with one shared store, so by the time a package is analyzed every
//     summary of its dependencies is already present.
//   - In `go vet -vettool` mode each package runs in its own process; the
//     store is seeded from the .vetx fact files of the dependencies
//     (cfg.PackageVetx) and the merged store is written to cfg.VetxOutput.
//     cmd/go caches those files keyed by the package's export data, which is
//     what keeps the interprocedural analyzers incremental.
//
// Keys are "analyzer\x00name" where name is normally a *types.Func FullName
// (e.g. "(*hugeomp/internal/machine.Context).AccessRange") but may be any string
// an analyzer chooses (lockorder uses a per-package "edges/<path>" fact for
// its acquisition graph). Values are JSON so the store is self-describing
// and diffable.
type FactStore struct {
	m map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[string]json.RawMessage)}
}

const factKeySep = "\x00"

// Get decodes the fact recorded under (analyzer, name) into out and reports
// whether one was present.
func (s *FactStore) Get(analyzer, name string, out any) bool {
	if s == nil {
		return false
	}
	raw, ok := s.m[analyzer+factKeySep+name]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Set records v as the fact for (analyzer, name), replacing any previous
// value.
func (s *FactStore) Set(analyzer, name string, v any) {
	if s == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		// Summaries are plain data structs; a marshal failure is an
		// analyzer bug, not an input condition.
		panic("lint/analysis: unmarshalable fact for " + analyzer + "/" + name + ": " + err.Error())
	}
	s.m[analyzer+factKeySep+name] = raw
}

// Range calls fn for every fact recorded under analyzer, in sorted name
// order (deterministic across runs and drivers).
func (s *FactStore) Range(analyzer string, fn func(name string, raw json.RawMessage)) {
	if s == nil {
		return
	}
	prefix := analyzer + factKeySep
	names := make([]string, 0, len(s.m))
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			names = append(names, strings.TrimPrefix(k, prefix))
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, s.m[prefix+name])
	}
}

// Encode serializes the whole store (imported and locally exported facts
// alike: downstream packages need the transitive closure, mirroring how
// x/tools fact files re-export imported facts).
func (s *FactStore) Encode() ([]byte, error) {
	if s == nil || len(s.m) == 0 {
		return nil, nil
	}
	// encoding/json sorts map keys, so the output is deterministic.
	return json.Marshal(s.m)
}

// MergeEncoded folds a blob produced by Encode into the store. Existing
// entries win: a package's own summaries are authoritative over re-exports.
func (s *FactStore) MergeEncoded(raw []byte) error {
	if len(raw) == 0 {
		return nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	for k, v := range m {
		if _, ok := s.m[k]; !ok {
			s.m[k] = v
		}
	}
	return nil
}
