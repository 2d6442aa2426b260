package model

import (
	"math"

	"llama4d/internal/tensor"
)

// RMSNorm is the root-mean-square layer normalisation used by Llama:
// y_i = g_i · x_i / sqrt(mean(x²) + eps).
type RMSNorm struct {
	P   *Param // gain g, shape [dim]
	Eps float32
}

// NewRMSNorm creates an RMSNorm with unit gain.
func NewRMSNorm(name string, dim int) *RMSNorm {
	g := tensor.New(dim)
	g.Fill(1)
	return &RMSNorm{P: NewParam(name, g), Eps: 1e-5}
}

type rmsCtx struct {
	x   *tensor.Tensor
	inv []float32 // per-row 1/rms
}

// Forward implements Layer.
func (n *RMSNorm) Forward(x *tensor.Tensor, _ *Env) (*tensor.Tensor, any) {
	ctx := &rmsCtx{x: x, inv: make([]float32, x.Rows())}
	return n.rows(x, ctx.inv), ctx
}

// Apply is the forward-only Forward: the same rows, no saved context.
// Caller owns the pooled result.
func (n *RMSNorm) Apply(x *tensor.Tensor) *tensor.Tensor { return n.rows(x, nil) }

// rows is the one normalisation loop (float64 mean-square accumulation,
// float32 inverse rms); inv, when non-nil, receives each row's 1/rms.
func (n *RMSNorm) rows(x *tensor.Tensor, inv []float32) *tensor.Tensor {
	rows, dim := x.Rows(), x.Cols()
	out := tensor.GetUninit(rows, dim)
	g := n.P.W.Data
	for i := 0; i < rows; i++ {
		xi := x.Row(i)
		var ss float64
		for _, v := range xi {
			ss += float64(v) * float64(v)
		}
		r := float32(1 / math.Sqrt(ss/float64(dim)+float64(n.Eps)))
		if inv != nil {
			inv[i] = r
		}
		oi := out.Row(i)
		for j, v := range xi {
			oi[j] = v * r * g[j]
		}
	}
	return out
}

// Backward implements Layer.
//
// With r = 1/rms: dx_j = r·g_j·dy_j − (r³/dim)·x_j·Σ_k dy_k·g_k·x_k,
// and dg_j += Σ_rows dy_j·x_j·r.
func (n *RMSNorm) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*rmsCtx)
	rows, dim := ctx.x.Rows(), ctx.x.Cols()
	dx := tensor.GetUninit(rows, dim)
	g := n.P.W.Data
	dg := n.P.G.Data
	for i := 0; i < rows; i++ {
		xi, dyi, dxi := ctx.x.Row(i), dy.Row(i), dx.Row(i)
		r := ctx.inv[i]
		var dot float32
		for j := range xi {
			dot += dyi[j] * g[j] * xi[j]
		}
		c := r * r * r * dot / float32(dim)
		for j := range xi {
			dxi[j] = r*g[j]*dyi[j] - c*xi[j]
			dg[j] += dyi[j] * xi[j] * r
		}
	}
	return dx
}

// Params implements Layer.
func (n *RMSNorm) Params() []*Param { return []*Param{n.P} }
