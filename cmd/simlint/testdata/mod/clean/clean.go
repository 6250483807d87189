// Package clean breaks no simlint rule.
package clean

// Sum adds its arguments.
func Sum(xs ...int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
