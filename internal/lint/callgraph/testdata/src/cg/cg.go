// Package cg is the call-graph corpus: one function per resolution rule.
package cg

// Shape is implemented by Square (value receiver) and *Circle (pointer
// receiver).
type Shape interface{ Area() int }

type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

type Circle struct{ r int }

func (c *Circle) Area() int { return 3 * c.r * c.r }

func leaf() int { return 1 }

// Literal calls leaf only inside a function literal, then calls the literal
// through a variable.
func Literal() int {
	f := func() int { return leaf() }
	return f()
}

// Dynamic calls through an interface method.
func Dynamic(s Shape) int { return s.Area() }

// Indirect calls through a function-typed parameter.
func Indirect(f func() int) int { return f() }

// Even and Odd are mutually recursive.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Top calls into the recursive pair.
func Top() bool { return Even(leaf()) }
