// Package testutil holds small helpers shared by the repo's tests — notably
// stdout capture, which lets each examples/ program's smoke test run its real
// main() and assert on the printed numbers.
package testutil

import (
	"io"
	"os"
	"sync"
)

// CaptureStdout runs f with os.Stdout redirected into a pipe and returns
// everything it printed. The pipe is drained concurrently, so output larger
// than the kernel pipe buffer cannot deadlock the caller. Test surface: the
// examples' smoke tests run each main() through it.
func CaptureStdout(f func()) string {
	orig := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	os.Stdout = w
	var (
		buf []byte
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf, _ = io.ReadAll(r)
	}()
	defer func() {
		os.Stdout = orig
	}()
	f()
	w.Close()
	wg.Wait()
	os.Stdout = orig
	return string(buf)
}
