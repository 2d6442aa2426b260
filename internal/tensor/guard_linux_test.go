//go:build linux

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float32s whose last element ends where a page
// with no access begins, so a kernel that touches one element past the slice
// faults instead of reading a neighbour's bytes. The mapping is released when
// the test ends.
func guardedFloats(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-4*n])), n)
}
