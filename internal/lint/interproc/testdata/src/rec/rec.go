// Package rec is the fixpoint corpus: a three-function recursive cycle
// below an entry point, and a function outside the cycle.
package rec

func A(n int) int {
	if n == 0 {
		return Leaf()
	}
	return B(n - 1)
}

func B(n int) int { return C(n) }

func C(n int) int { return A(n) }

func Leaf() int { return 1 }

func Entry() int { return A(3) }
