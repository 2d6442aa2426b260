//go:build exhaustive && amd64 && !purego

package tensor

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestExpExhaustive runs every one of the 2³² float32 bit patterns through
// the vector exp: ExpShift and Sigmoid Float32bits-equal (NaN-ness for NaN)
// to their math.Exp contracts, and the float64 lanes before narrowing
// bit-equal to math.Exp of the widened input. Not tier-1: `make
// exhaustive-exp` runs it (about four CPU-minutes).
func TestExpExhaustive(t *testing.T) {
	if !useVecExp {
		t.Skip("no vector exp on this CPU")
	}
	const chunk = 1 << 20
	var next, bad uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]float32, chunk)
			exp32, sig := make([]float32, chunk), make([]float32, chunk)
			src64, exp64 := make([]float64, chunk), make([]float64, chunk)
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
					src64[i] = float64(src[i])
				}
				copy(exp32, src)
				ExpShift(exp32, 0)
				Sigmoid(sig, src)
				exp64AVX512(&exp64[0], &src64[0], chunk)
				for i, x := range src {
					e := math.Exp(src64[i])
					if !sameBits64(exp64[i], e) || !sameBits(exp32[i], expRef(x, 0)) || !sameBits(sig[i], sigmoidRef(x)) {
						mu.Lock()
						if bad++; bad <= 10 {
							t.Errorf("x = %v (%#x): exp64 %#x want %#x, ExpShift %#x want %#x, Sigmoid %#x want %#x",
								x, math.Float32bits(x), math.Float64bits(exp64[i]), math.Float64bits(e),
								math.Float32bits(exp32[i]), math.Float32bits(expRef(x, 0)),
								math.Float32bits(sig[i]), math.Float32bits(sigmoidRef(x)))
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
