package npb

import "hugeomp/internal/core"

// Per-kernel warm-state forks. A kernel fork is an independent copy of the
// post-Setup state from which Run can start: arrays the kernel mutates during
// Run are privatized (deep-copied), while the big static inputs written only
// at Setup time — CG's CSR matrix, BT's forcing field, SP's rho field, FT's
// pristine reference, MG's input charges — are shared read-only between every
// fork and the template. Code regions are immutable descriptors and are
// always shared.
//
// The read-only/mutable split below is part of each kernel's Run contract:
// a kernel that starts writing a shared array must move it to the privatized
// set here, or concurrent forks will observe each other's writes (the
// fork-isolation property test pins this).

type forker interface{ fork() Kernel }

// forkKernel clones k's post-Setup state. Every kernel New builds has a fork
// method.
func forkKernel(k Kernel) Kernel { return k.(forker).fork() }

func (k *CG) fork() Kernel {
	n := *k
	// a, colidx, rowstr, x: read-only in Run — shared.
	n.z = k.z.Fork()
	n.p = k.p.Fork()
	n.q = k.q.Fork()
	n.r = k.r.Fork()
	return &n
}

func (k *BT) fork() Kernel {
	n := *k
	// forcing: read-only in Run — shared.
	n.u = k.u.Fork()
	n.rhs = k.rhs.Fork()
	n.qs = k.qs.Fork()
	n.square = k.square.Fork()
	return &n
}

func (k *SP) fork() Kernel {
	n := *k
	// rho: read-only in Run — shared.
	n.u = k.u.Fork()
	n.rhs = k.rhs.Fork()
	return &n
}

func (k *FT) fork() Kernel {
	n := *k
	// orig: the pristine host-side reference — shared.
	n.re = k.re.Fork()
	n.im = k.im.Fork()
	return &n
}

func (k *MG) fork() Kernel {
	n := *k
	n.u = make([]*core.Array, len(k.u))
	n.r = make([]*core.Array, len(k.r))
	n.f = make([]*core.Array, len(k.f))
	for l := range k.u {
		n.u[l] = k.u[l].Fork()
		n.r[l] = k.r[l].Fork()
		if l == 0 {
			// The input field v (f[0]) is read-only in Run — shared; the
			// coarse right-hand sides are written by restriction.
			n.f[l] = k.f[l]
		} else {
			n.f[l] = k.f[l].Fork()
		}
	}
	return &n
}
