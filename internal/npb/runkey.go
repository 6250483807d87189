package npb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"hugeomp/internal/cache"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/tlb"
)

// RunKey returns the canonical content key of one simulated run: the hex
// SHA-256 that memo.KeyOf("npb/run", kernel, cfg) computes, over the memo
// schema line, the JSON of the two strings and the JSON of cfg. Every
// driver that shares results — cmd/sweep, cmd/simd via internal/simsrv, the
// bench harness — keys with this function, so a result computed by one
// process is addressable by all the others through a shared disk cache.
//
// The bytes are appended by hand, field by field in declared order,
// exactly as encoding/json would write them (Ctx, tagged json:"-", is never
// written), so every key stays the one memo.KeyOf gives; the package tests
// hold the two equal and check that every leaf field moves the key.
//
// A run with a fault plan is not content-addressable: faultinject.Plan has
// only unexported fields, so every armed plan would encode as {} and two
// different plans would share a key. RunKey panics on one. A non-finite
// Costs.ClockGHz panics too, as encoding/json refuses it.
func RunKey(kernel string, cfg RunConfig) string {
	if cfg.Fault != nil {
		panic("npb: RunKey of a run with a fault plan: the plan is not part of the key, so its result is not content-addressable")
	}
	var buf [2048]byte
	b := append(buf[:0], "memo/schema/"...)
	b = strconv.AppendInt(b, memo.SchemaVersion, 10)
	b = append(b, "\n\"npb/run\"\n"...)
	b = appendString(b, kernel)
	b = append(b, '\n')
	b = appendRunConfig(b, &cfg)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

func appendRunConfig(b []byte, c *RunConfig) []byte {
	b = append(b, `{"Model":`...)
	b = appendModel(b, &c.Model)
	b = appendInt(b, `,"Threads":`, int64(c.Threads))
	b = appendUint(b, `,"Policy":`, uint64(c.Policy))
	b = appendUint(b, `,"Class":`, uint64(c.Class))
	b = appendInt(b, `,"Iterations":`, int64(c.Iterations))
	b = appendUint(b, `,"Sharing":`, uint64(c.Sharing))
	b = appendUint(b, `,"Barrier":`, uint64(c.Barrier))
	b = appendInt(b, `,"Hugetlb":`, int64(c.Hugetlb))
	b = appendInt(b, `,"HugePages":`, int64(c.HugePages))
	// RunKey refuses a non-nil Fault, so the plan is always null here.
	return append(b, `,"Fault":null}`...)
}

func appendModel(b []byte, m *machine.Model) []byte {
	b = append(b, `{"Name":`...)
	b = appendString(b, m.Name)
	b = appendInt(b, `,"Chips":`, int64(m.Chips))
	b = appendInt(b, `,"CoresPerChip":`, int64(m.CoresPerChip))
	b = appendInt(b, `,"ThreadsPerCore":`, int64(m.ThreadsPerCore))
	b = append(b, `,"ITLB":`...)
	b = appendTLBSpec(b, &m.ITLB)
	b = append(b, `,"DTLB":`...)
	b = appendTLBSpec(b, &m.DTLB)
	b = append(b, `,"L1D":`...)
	b = appendCacheConfig(b, &m.L1D)
	b = append(b, `,"L2":`...)
	b = appendCacheConfig(b, &m.L2)
	b = appendBool(b, `,"L2PerChip":`, m.L2PerChip)
	b = appendUint(b, `,"SMT":`, uint64(m.SMT))
	b = appendBool(b, `,"Coherent":`, m.Coherent)
	b = append(b, `,"Costs":`...)
	b = appendCosts(b, &m.Costs)
	return append(b, '}')
}

func appendTLBSpec(b []byte, s *tlb.Spec) []byte {
	b = append(b, `{"Name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"L1":`...)
	b = appendLevelSpec(b, &s.L1)
	b = append(b, `,"L2":`...)
	b = appendLevelSpec(b, &s.L2)
	return append(b, '}')
}

func appendLevelSpec(b []byte, l *tlb.LevelSpec) []byte {
	b = appendInt(b, `{"E4K":{"Entries":`, int64(l.E4K.Entries))
	b = appendInt(b, `,"Ways":`, int64(l.E4K.Ways))
	b = appendInt(b, `},"E2M":{"Entries":`, int64(l.E2M.Entries))
	b = appendInt(b, `,"Ways":`, int64(l.E2M.Ways))
	return append(b, "}}"...)
}

func appendCacheConfig(b []byte, c *cache.Config) []byte {
	b = appendInt(b, `{"SizeBytes":`, c.SizeBytes)
	b = appendInt(b, `,"Ways":`, int64(c.Ways))
	b = appendInt(b, `,"LineSize":`, c.LineSize)
	return append(b, '}')
}

func appendCosts(b []byte, c *machine.Costs) []byte {
	b = append(b, `{"ClockGHz":`...)
	b = appendFloat(b, c.ClockGHz)
	b = appendUint(b, `,"ExecCyc":`, c.ExecCyc)
	b = appendUint(b, `,"L1HitCyc":`, c.L1HitCyc)
	b = appendUint(b, `,"L2HitCyc":`, c.L2HitCyc)
	b = appendUint(b, `,"MemCyc":`, c.MemCyc)
	b = appendUint(b, `,"StreamCyc":`, c.StreamCyc)
	b = appendUint(b, `,"TLBL2Cyc":`, c.TLBL2Cyc)
	b = appendUint(b, `,"WalkRefCyc":`, c.WalkRefCyc)
	b = appendUint(b, `,"C2CCyc":`, c.C2CCyc)
	b = appendUint(b, `,"FlushCyc":`, c.FlushCyc)
	b = appendUint(b, `,"FetchCyc":`, c.FetchCyc)
	b = appendUint(b, `,"MsgCyc":`, c.MsgCyc)
	b = appendUint(b, `,"ForkCyc":`, c.ForkCyc)
	b = appendUint(b, `,"AtomicCyc":`, c.AtomicCyc)
	b = appendUint(b, `,"SoftFaultCyc":`, c.SoftFaultCyc)
	return append(b, '}')
}

func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendUint(b []byte, name string, v uint64) []byte {
	return strconv.AppendUint(append(b, name...), v, 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// appendString writes s as encoding/json does. A string of printable ASCII
// without '"', '\\' or the HTML characters json escapes ('<', '>', '&') is
// written as it is, between quotes; anything else — every built-in name is
// plain — goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic(err) // unreachable: every Go string encodes
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat writes f as encoding/json does: the shortest 'f' form, or the
// 'e' form below 1e-6 and from 1e21 up, with a one-digit negative exponent
// unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("npb: RunKey: unsupported float %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
