//go:build !linux

package tensor

import "testing"

// guardedFloats is a plain allocation where no guard page can be mapped.
func guardedFloats(t testing.TB, n int) []float32 { return make([]float32, n) }
