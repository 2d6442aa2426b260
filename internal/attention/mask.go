// Package attention implements the attention kernels of the reproduction:
// one mask-structured forward — a row-band loop, scores → masked softmax →
// P·V, over the non-empty tiles of a classified score plane (blocked.go) —
// with an exact tile-driven backward, and the dense reference kernels
// (Dense*) the two are held bitwise equal to. The forward has two kinds of
// entry: Forward/ForwardRecorded (the paper's CP design, §4: all-gather,
// then one fused kernel) and PartialForwardInto (the same loop stopping
// before normalisation, with log-sum-exp statistics; a bench probe only).
//
// All kernels operate on a single head: Q is [sq, d], K and V are [sk, d].
// Query rows carry explicit global positions so that context-parallel ranks,
// which own non-contiguous chunks of the sequence (§4 "Implementation"), can
// evaluate masks in global coordinates against the all-gathered K/V.
package attention

// Mask decides which key positions a query position may attend to, in global
// sequence coordinates.
type Mask interface {
	// Allowed reports whether query position q may attend key position k.
	Allowed(q, k int) bool
}

// Full allows every query to attend every key (bidirectional attention, used
// by the ViT image encoder).
type Full struct{}

// Allowed implements Mask.
func (Full) Allowed(q, k int) bool { return true }

// Causal allows each query to attend itself and earlier positions — the
// standard autoregressive LM mask.
type Causal struct{}

// Allowed implements Mask.
func (Causal) Allowed(q, k int) bool { return k <= q }

// Document is the paper's document mask (block-causal): causal attention
// restricted to tokens of the same document. DocID[t] identifies the
// document containing global position t. Every producer in the tree emits
// non-decreasing ids, the form the tile classifier is built for; ids that
// recur are still compared exactly, but BuildGrid then skips no tile.
type Document struct {
	DocID []int
}

// Allowed implements Mask.
func (d Document) Allowed(q, k int) bool {
	return k <= q && d.DocID[q] == d.DocID[k]
}

// DocIDsFromLengths expands per-document token counts into a per-position
// document id vector of total length seq. The final document is truncated or
// the last id extended so the result always covers exactly seq positions —
// matching the paper's packing where a sequence may end mid-document.
func DocIDsFromLengths(lengths []int, seq int) []int {
	ids := make([]int, 0, seq)
	doc := 0
	for _, n := range lengths {
		for i := 0; i < n && len(ids) < seq; i++ {
			ids = append(ids, doc)
		}
		doc++
		if len(ids) >= seq {
			break
		}
	}
	for len(ids) < seq {
		ids = append(ids, doc)
		doc++ // remaining positions are singleton documents (padding)
	}
	return ids
}

// DocIDsFromEOS derives document ids from token ids: an eos token terminates
// its document (the eos belongs to the document it ends), the next token
// starts a new one. This is the paper's eos_id-dependent document boundary.
func DocIDsFromEOS(tokens []int, eosID int) []int {
	ids := make([]int, len(tokens))
	doc := 0
	for i, t := range tokens {
		ids[i] = doc
		if t == eosID {
			doc++
		}
	}
	return ids
}

// RowMask fills dst[j] = m.Allowed(q, kOff+j) for one query row against the
// key block at kOff..kOff+len(dst)-1, hoisting the mask out of the score
// kernels' inner loops. The built-in mask types get direct loops — no
// interface dispatch per element, and the causal cut-off turns the tail into
// a straight fill — which is what stops document masks from dominating the
// attention score loop. Unknown mask implementations fall back to the
// per-element interface call, so the semantics are identical by
// construction.
func RowMask(m Mask, q, kOff int, dst []bool) {
	switch mm := m.(type) {
	case Full:
		for j := range dst {
			dst[j] = true
		}
	case Causal:
		cut := causalCut(q, kOff, len(dst))
		for j := 0; j < cut; j++ {
			dst[j] = true
		}
		for j := cut; j < len(dst); j++ {
			dst[j] = false
		}
	case Document:
		cut := causalCut(q, kOff, len(dst))
		for j := cut; j < len(dst); j++ {
			dst[j] = false
		}
		if cut == 0 {
			return
		}
		// q is a valid index here: cut > 0 implies some k ≤ q exists, and
		// Document.Allowed would have indexed DocID[q] for it too.
		qd := mm.DocID[q]
		ids := mm.DocID[kOff : kOff+cut]
		for j, id := range ids {
			dst[j] = id == qd
		}
	default:
		for j := range dst {
			dst[j] = m.Allowed(q, kOff+j)
		}
	}
}

// causalCut returns the count of key slots j in [0, sk) with kOff+j <= q.
func causalCut(q, kOff, sk int) int {
	cut := q - kOff + 1
	if cut < 0 {
		return 0
	}
	if cut > sk {
		return sk
	}
	return cut
}

// AllowedPairs counts mask-allowed (query, key) pairs for queries at the
// given global positions against keys 0..sk-1. Attention FLOPs are
// proportional to this count, which is how the cost model scales document
// masks relative to full causal masks (Fig 11 and Fig 14).
func AllowedPairs(m Mask, qPos []int, sk int) int {
	n := 0
	for _, q := range qPos {
		for k := 0; k < sk; k++ {
			if m.Allowed(q, k) {
				n++
			}
		}
	}
	return n
}

// Iota returns [0, 1, ..., n-1], the query-position vector of a rank that
// owns the whole sequence.
func Iota(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// DocStarts returns, for each position, the first position of its document.
// For a full causal mask pass a single-document id vector (all zeros).
func DocStarts(docIDs []int) []int {
	starts := make([]int, len(docIDs))
	cur := 0
	for i := range docIDs {
		if i > 0 && docIDs[i] != docIDs[i-1] {
			cur = i
		}
		starts[i] = cur
	}
	return starts
}

// FastAllowedPairs counts document-mask-allowed (query, key) pairs for the
// given query positions in O(len(qPos)): position p attends p−start(p)+1
// keys. Equivalent to AllowedPairs with a Document mask over the full
// sequence, but usable at 131K-token scale (Fig 11/14 workload accounting).
func FastAllowedPairs(qPos []int, docStarts []int) int64 {
	var n int64
	for _, p := range qPos {
		n += int64(p - docStarts[p] + 1)
	}
	return n
}
