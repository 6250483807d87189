package diskcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hugeomp/internal/memo"
)

// openTest opens a store on a fresh directory and returns both.
func openTest(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

const key = "0f1e2d3c4b5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0"

func TestPutGetRoundTrip(t *testing.T) {
	s, dir := openTest(t)
	payload := []byte(`{"cycles":12345}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	// A second handle on the same directory — another process — sees it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("cross-handle Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

// TestCorruptEntriesReadAsMisses: every way an entry can rot — torn write
// (truncation, including inside the header), bit flip in the payload, bit
// flip in the header, foreign format version, foreign garbage — reads as a
// miss, never a panic or an error, and the rotten file is collected.
func TestCorruptEntriesReadAsMisses(t *testing.T) {
	payload := []byte(`{"kernel":"CG","cycles":987654321,"pad":"xxxxxxxxxxxxxxxx"}`)
	cases := []struct {
		name  string
		mutat func(raw []byte) []byte
		stale bool
	}{
		{"truncated-payload", func(raw []byte) []byte { return raw[:len(raw)-7] }, false},
		{"truncated-header", func(raw []byte) []byte { return raw[:headerSize/2] }, false},
		{"empty", func(raw []byte) []byte { return nil }, false},
		{"payload-bit-flip", func(raw []byte) []byte { raw[headerSize+3] ^= 0x40; return raw }, false},
		{"checksum-bit-flip", func(raw []byte) []byte { raw[20] ^= 0x01; return raw }, false},
		{"length-lie", func(raw []byte) []byte { binary.LittleEndian.PutUint64(raw[8:16], 3); return raw }, false},
		{"bad-magic", func(raw []byte) []byte { raw[0] = 'X'; return raw }, false},
		{"foreign-version", func(raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[4:8], FormatVersion+7)
			return raw
		}, true},
		{"garbage", func(raw []byte) []byte { return []byte("not an entry at all, just bytes") }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openTest(t)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := s.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutat(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Error("corrupt entry not garbage-collected")
			}
			st := s.Stats()
			if tc.stale {
				if st.StaleVersions != 1 {
					t.Errorf("stale versions = %d, want 1 (%+v)", st.StaleVersions, st)
				}
			} else if st.CorruptSkips != 1 {
				t.Errorf("corrupt skips = %d, want 1 (%+v)", st.CorruptSkips, st)
			}
			// The key is computable again after collection.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("re-put after GC: Get = %q, %v", got, ok)
			}
		})
	}
}

// TestUnusableDirectoryDegrades: a store whose directory cannot host files
// still answers through the memo — the flight misses, computes, and its
// failed Put is counted — and a repeat is served from memory.
func TestUnusableDirectoryDegrades(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the directory with a file so MkdirAll fails too.
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := memo.New()
	c.SetBacking(s)
	for i, wantHit := range []bool{false, true} {
		got, hit, err := c.GetOrComputeBytes(key, func() (any, error) { return "computed", nil })
		if err != nil || hit != wantHit || string(got) != `"computed"` {
			t.Fatalf("call %d: %s hit=%v err=%v, want the computed answer, hit=%v", i, got, hit, err, wantHit)
		}
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.Writes != 0 {
		t.Errorf("stats = %+v, want 1 write error, 1 miss, 0 writes", st)
	}
	if err := s.Put(key, []byte("v")); err == nil {
		t.Error("Put into a file succeeded")
	}
	if st := s.Stats(); st.WriteErrors != 2 {
		t.Errorf("a failed direct Put is not counted: %+v", st)
	}
}

// TestHostileKeysStayInside: keys that are not canonical hex are re-hashed,
// so they cannot traverse outside the cache directory.
func TestHostileKeysStayInside(t *testing.T) {
	s, dir := openTest(t)
	for _, k := range []string{"../../etc/passwd", "a/b", "", "UPPER", "short"} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
		got, ok := s.Get(k)
		if !ok || string(got) != "v" {
			t.Fatalf("Get(%q) = %q, %v", k, got, ok)
		}
		rel, err := filepath.Rel(dir, s.entryPath(k))
		if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) > 0 && rel[0] == '.' && rel[1] == '.' {
			t.Fatalf("entryPath(%q) escapes: %q", k, s.entryPath(k))
		}
	}
}

func testKey(k int) string {
	return fmt.Sprintf("%064x", 0xabc0+k)
}

// TestTwoProcessesPublishOneEntry: two handles on one directory, each under
// its own memo.Cache, stand in for two processes sharing a cache directory
// without coordinating. Eight goroutines per cache request the same 16 keys:
// every answer for a key is byte-identical, each cache computes each key at
// most once, and each key ends as exactly one valid entry with no temporary
// file left behind.
func TestTwoProcessesPublishOneEntry(t *testing.T) {
	const keys, callers = 16, 8
	type value struct {
		Key    int
		Cycles uint64
	}
	dir := t.TempDir()
	var caches [2]*memo.Cache
	var computes [2][keys]atomic.Int64
	for p := range caches {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		caches[p] = memo.New()
		caches[p].SetBacking(s)
	}
	var got [2][callers][keys][]byte
	var wg sync.WaitGroup
	for p := range caches {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(p, c int) {
				defer wg.Done()
				for j := 0; j < keys; j++ {
					k := (j + c) % keys
					data, _, err := caches[p].GetOrComputeBytes(testKey(k), func() (any, error) {
						computes[p][k].Add(1)
						time.Sleep(time.Millisecond) // let the other process miss too
						return value{Key: k, Cycles: uint64(1000 + k)}, nil
					})
					if err != nil {
						t.Errorf("process %d caller %d key %d: %v", p, c, k, err)
					}
					got[p][c][k] = data
				}
			}(p, c)
		}
	}
	wg.Wait()

	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k := 0; k < keys; k++ {
		total += int(computes[0][k].Load() + computes[1][k].Load())
	}
	t.Logf("%d computes for %d keys: %d keys simulated by both processes", total, keys, total-keys)
	for k := 0; k < keys; k++ {
		want, err := json.Marshal(value{Key: k, Cycles: uint64(1000 + k)})
		if err != nil {
			t.Fatal(err)
		}
		for p := range caches {
			if n := computes[p][k].Load(); n > 1 {
				t.Errorf("process %d computed key %d %d times", p, k, n)
			}
			for c := 0; c < callers; c++ {
				if !bytes.Equal(got[p][c][k], want) {
					t.Errorf("process %d caller %d key %d: got %s, want %s", p, c, k, got[p][c][k], want)
				}
			}
		}
		if entry, ok := reader.Get(testKey(k)); !ok || !bytes.Equal(entry, want) {
			t.Errorf("key %d: stored entry %s (found %v), want %s", k, entry, ok, want)
		}
	}
	var files []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, d.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if filepath.Ext(name) != ".e" {
			t.Errorf("stray file %s left in the cache directory", name)
		}
	}
	if len(files) != keys {
		t.Errorf("%d files in the cache directory, want one entry per key (%d)", len(files), keys)
	}
}

// TestLayeredWarmRestart pairs the real memo.Cache with the disk layer: a
// first process computes and publishes, a "restarted" process (fresh memo,
// same directory) serves the same key from disk without computing.
func TestLayeredWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := memo.New()
	c1.SetBacking(s1)
	type result struct{ Cycles uint64 }
	var v result
	if hit, err := c1.GetOrCompute(key, func() (any, error) { return result{77}, nil }, &v); err != nil || hit {
		t.Fatalf("first compute: hit=%v err=%v", hit, err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := memo.New()
	c2.SetBacking(s2)
	v = result{}
	hit, err := c2.GetOrCompute(key, func() (any, error) {
		t.Error("compute ran on warm restart")
		return nil, errors.New("unreachable")
	}, &v)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || v.Cycles != 77 {
		t.Fatalf("warm restart: hit=%v v=%+v", hit, v)
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Errorf("disk hits = %d, want 1 (%+v)", st.Hits, st)
	}
}
