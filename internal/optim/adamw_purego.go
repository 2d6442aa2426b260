//go:build !amd64 || purego

package optim

// adamwVec covers nothing: the update's scalar loop does all the work.
func adamwVec(w, g, m, v []float32, b1, c1, b2, c2, bc1, bc2, eps, wd, lr float32) int { return 0 }
