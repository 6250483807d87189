package analysis

// A FactStore carries per-function summaries ("facts") across package
// boundaries, which is what turns the per-package analyzers into a
// whole-program analysis: cmd/simlint walks the module in dependency order
// with one shared store, so by the time a package is analyzed every summary
// of its dependencies is already present.
//
// Keys are an analyzer name plus a *types.Func FullName (e.g.
// "(*hugeomp/internal/machine.Context).AccessRange"); values are the
// analyzer's own summary type, read back with a type assertion.
type FactStore struct {
	m map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[string]any)}
}

// Get returns the fact recorded under (analyzer, name), if any.
func (s *FactStore) Get(analyzer, name string) (any, bool) {
	if s == nil {
		return nil, false
	}
	v, ok := s.m[analyzer+"\x00"+name]
	return v, ok
}

// Set records v as the fact for (analyzer, name), replacing any previous
// value. A recorded summary must not be mutated afterwards.
func (s *FactStore) Set(analyzer, name string, v any) {
	if s != nil {
		s.m[analyzer+"\x00"+name] = v
	}
}
