// Package models contains the Sparse-DySta benchmark model zoo: layer-level
// architectural descriptions of the seven benchmark networks of paper
// Table 3 (SSD, ResNet-50, VGG-16, MobileNet, BERT, BART, GPT-2) plus
// GoogLeNet and InceptionV3, which the paper profiles for Table 2.
//
// The descriptions carry exactly what the schedulers and hardware simulators
// consume: per-layer shapes, MAC and parameter counts, and activation
// footprints. No weights are involved — scheduling depends only on the
// computational structure (see DESIGN.md §2 for the substitution argument).
package models

import "fmt"

// Kind classifies a layer for the latency models.
type Kind int

const (
	// Conv is a standard 2-D convolution (including 1x1 pointwise).
	Conv Kind = iota
	// DWConv is a depthwise 2-D convolution (one filter per channel).
	DWConv
	// FC is a fully connected (dense) layer.
	FC
	// Attention is one full transformer block: QKV projections, the
	// sparse attention product, output projection and the feed-forward
	// sublayer. AttNN dynamic sparsity (paper §2.3.1) acts on this kind.
	Attention
	// Pool is a pooling layer; it contributes data movement but no MACs.
	Pool
)

// String returns a short layer-kind name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case FC:
		return "fc"
	case Attention:
		return "attn"
	case Pool:
		return "pool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer describes one schedulable unit of a model. The paper schedules at
// layer (CNN) or transformer-block (AttNN) granularity (§4.2.2, Fig. 9);
// each Layer here is one such unit.
type Layer struct {
	Name string
	Kind Kind

	// Convolution / FC geometry. FC layers use KH = KW = 1 and
	// OutH = OutW = 1 with Cin/Cout the feature dimensions.
	Cin, Cout  int
	KH, KW     int
	Stride     int
	InH, InW   int
	OutH, OutW int

	// Transformer geometry (Kind == Attention).
	SeqLen, Hidden, Heads, FFNDim int
}

// MACs returns the dense multiply-accumulate count of the layer.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.Cout) * int64(l.Cin) * int64(l.KH) * int64(l.KW) *
			int64(l.OutH) * int64(l.OutW)
	case DWConv:
		return int64(l.Cout) * int64(l.KH) * int64(l.KW) *
			int64(l.OutH) * int64(l.OutW)
	case FC:
		return int64(l.Cin) * int64(l.Cout)
	case Attention:
		return l.attnProjMACs() + l.AttnMatrixMACs() + l.ffnMACs()
	default:
		return 0
	}
}

// attnProjMACs counts the QKV and output projection MACs of a block.
func (l *Layer) attnProjMACs() int64 {
	h, s := int64(l.Hidden), int64(l.SeqLen)
	return 4 * h * h * s // Q, K, V, and output projections
}

// AttnMatrixMACs counts the attention-matrix MACs of a block: the QK^T
// score computation plus the probability-times-V product. This is the part
// that dynamic attention pruning (Sanger/SpAtten style) sparsifies.
func (l *Layer) AttnMatrixMACs() int64 {
	h, s := int64(l.Hidden), int64(l.SeqLen)
	return 2 * s * s * h
}

// ffnMACs counts the feed-forward sublayer MACs of a block.
func (l *Layer) ffnMACs() int64 {
	h, s, f := int64(l.Hidden), int64(l.SeqLen), int64(l.FFNDim)
	return 2 * h * f * s
}

// Params returns the layer's weight parameter count.
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.Cout) * int64(l.Cin) * int64(l.KH) * int64(l.KW)
	case DWConv:
		return int64(l.Cout) * int64(l.KH) * int64(l.KW)
	case FC:
		return int64(l.Cin) * int64(l.Cout)
	case Attention:
		h, f := int64(l.Hidden), int64(l.FFNDim)
		return 4*h*h + 2*h*f
	default:
		return 0
	}
}

// InputElems returns the number of input activation elements the layer
// reads (used by the memory model).
func (l *Layer) InputElems() int64 {
	switch l.Kind {
	case Conv, DWConv, Pool:
		return int64(l.Cin) * int64(l.InH) * int64(l.InW)
	case FC:
		return int64(l.Cin)
	case Attention:
		return int64(l.SeqLen) * int64(l.Hidden)
	default:
		return 0
	}
}

// OutputElems returns the number of output activation elements the layer
// writes.
func (l *Layer) OutputElems() int64 {
	switch l.Kind {
	case Conv, DWConv, Pool:
		return int64(l.Cout) * int64(l.OutH) * int64(l.OutW)
	case FC:
		return int64(l.Cout)
	case Attention:
		return int64(l.SeqLen) * int64(l.Hidden)
	default:
		return 0
	}
}

// conv constructs a Conv layer, deriving the output size from the input
// size, kernel, stride and implicit "same"-style padding pad.
func conv(name string, cin, cout, k, stride, inH, inW, pad int) Layer {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	return Layer{
		Name: name, Kind: Conv,
		Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride,
		InH: inH, InW: inW, OutH: outH, OutW: outW,
	}
}

// dwconv constructs a depthwise Conv layer.
func dwconv(name string, c, k, stride, inH, inW, pad int) Layer {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	return Layer{
		Name: name, Kind: DWConv,
		Cin: c, Cout: c, KH: k, KW: k, Stride: stride,
		InH: inH, InW: inW, OutH: outH, OutW: outW,
	}
}

// fc constructs a fully connected layer.
func fc(name string, cin, cout int) Layer {
	return Layer{Name: name, Kind: FC, Cin: cin, Cout: cout, KH: 1, KW: 1,
		InH: 1, InW: 1, OutH: 1, OutW: 1, Stride: 1}
}

// attnBlock constructs one transformer block.
func attnBlock(name string, seqLen, hidden, heads, ffnDim int) Layer {
	return Layer{Name: name, Kind: Attention,
		SeqLen: seqLen, Hidden: hidden, Heads: heads, FFNDim: ffnDim}
}
