//go:build exhaustive && amd64 && !purego

package optim

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"llama4d/internal/tensor"
)

// TestSqrtExhaustive runs every one of the 2³² float32 bit patterns through
// the AdamW kernel's VSQRTPS and through the float64 square root narrowed,
// and requires equal bits, NaN payloads included: the double-rounding
// argument of adamw_amd64.s checked on every input. Not tier-1: `make
// exhaustive-exp` runs it.
func TestSqrtExhaustive(t *testing.T) {
	if !tensor.HasAVX512() {
		t.Skip("no AVX-512 on this CPU")
	}
	const chunk = 1 << 20
	var next, bad uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, got := make([]float32, chunk), make([]float32, chunk)
			for {
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= 1<<32 {
					return
				}
				for i := range src {
					src[i] = math.Float32frombits(uint32(lo) + uint32(i))
				}
				sqrt32AVX512(&got[0], &src[0], chunk)
				for i, x := range src {
					if want := float32(sqrt64(float64(x))); math.Float32bits(got[i]) != math.Float32bits(want) {
						mu.Lock()
						if bad++; bad <= 10 {
							t.Errorf("sqrt(%v = %#x) = %#x, want %#x", x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d of 2³² inputs differ", bad)
	}
}
