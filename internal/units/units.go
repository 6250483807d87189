// Package units defines the elementary types shared by every layer of the
// simulator: virtual addresses, cycle counts, page sizes and byte-size
// formatting. Keeping these in one dependency-free package lets the
// hardware-model packages (tlb, cache, pagetable, machine) agree on
// representations without import cycles.
package units

import "fmt"

// Addr is a 64-bit virtual or physical address.
type Addr uint64

// Cycles counts simulated processor clock cycles.
type Cycles uint64

// Byte size constants.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Page sizes supported by the simulated processors, matching the paper:
// traditional 4 KB pages and 2 MB large ("huge") pages.
const (
	PageSize4K int64 = 4 * KB
	PageSize2M int64 = 2 * MB

	PageShift4K = 12
	PageShift2M = 21
)

// CacheLineSize is the line size of every simulated cache (both the 2007-era
// Opteron and Xeon used 64-byte lines).
const CacheLineSize int64 = 64

// PageSize enumerates the two page-size classes.
type PageSize uint8

const (
	Size4K PageSize = iota
	Size2M
	numPageSizes
)

// NumPageSizes is the number of page-size classes (for sizing per-class
// arrays such as split TLBs).
const NumPageSizes = int(numPageSizes)

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() int64 {
	if s == Size2M {
		return PageSize2M
	}
	return PageSize4K
}

// Shift returns log2 of the page size.
func (s PageSize) Shift() uint {
	if s == Size2M {
		return PageShift2M
	}
	return PageShift4K
}

// Mask returns the offset mask within a page of this size.
func (s PageSize) Mask() Addr { return Addr(s.Bytes() - 1) }

// VPN returns the virtual page number of va under this page size.
func (s PageSize) VPN(va Addr) uint64 { return uint64(va) >> s.Shift() }

// Base returns the page-aligned base of va under this page size.
func (s PageSize) Base(va Addr) Addr { return va &^ s.Mask() }

// String implements fmt.Stringer.
func (s PageSize) String() string {
	if s == Size2M {
		return "2MB"
	}
	return "4KB"
}

// HumanBytes renders n as a compact human-readable byte count, e.g. "512KB",
// "64MB", "2.4GB". It is used by the Table 1 / Table 2 reproductions.
func HumanBytes(n int64) string {
	switch {
	case n >= GB:
		if n%GB == 0 {
			return fmt.Sprintf("%dGB", n/GB)
		}
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		if n%MB == 0 {
			return fmt.Sprintf("%dMB", n/MB)
		}
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= KB:
		if n%KB == 0 {
			return fmt.Sprintf("%dKB", n/KB)
		}
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseBytes parses a human byte count — the inverse of HumanBytes and the
// format of every size-taking command-line flag: "512MB", "2gb", "64K", a
// trailing "B"/"iB" optional and case ignored, a bare number meaning bytes.
// Fractions are accepted ("1.5GB"); negatives are not.
func ParseBytes(s string) (int64, error) {
	t := s
	for len(t) > 0 {
		c := t[len(t)-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		t = t[:len(t)-1]
	}
	num, suffix := t, s[len(t):]
	mult := int64(1)
	switch {
	case suffix == "" || eqFold(suffix, "B"):
	case eqFold(suffix, "K") || eqFold(suffix, "KB") || eqFold(suffix, "KiB"):
		mult = KB
	case eqFold(suffix, "M") || eqFold(suffix, "MB") || eqFold(suffix, "MiB"):
		mult = MB
	case eqFold(suffix, "G") || eqFold(suffix, "GB") || eqFold(suffix, "GiB"):
		mult = GB
	default:
		return 0, fmt.Errorf("units: bad byte size %q", s)
	}
	if num == "" {
		return 0, fmt.Errorf("units: bad byte size %q", s)
	}
	var f float64
	if _, err := fmt.Sscanf(num+"\n", "%g\n", &f); err != nil || f < 0 {
		return 0, fmt.Errorf("units: bad byte size %q", s)
	}
	return int64(f * float64(mult)), nil
}

func eqFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n int64, align int64) int64 {
	return (n + align - 1) &^ (align - 1)
}
