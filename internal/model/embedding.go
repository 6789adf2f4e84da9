package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Embedding maps token IDs to hidden states: word embedding plus sinusoidal
// position encoding, followed by LayerNorm (the BERT input pipeline with the
// learned position table replaced by the original transformer's sinusoids so
// no extra state is needed for arbitrary lengths).
type Embedding struct {
	Hidden int
	Vocab  int
	Word   *tensor.Tensor // [vocab, hidden]
	Gamma  *tensor.Tensor // [hidden]
	Beta   *tensor.Tensor // [hidden]

	pos posTable
}

// NewEmbedding builds a deterministic random embedding table.
func NewEmbedding(cfg Config, seed int64) *Embedding {
	return &Embedding{
		Hidden: cfg.Hidden,
		Vocab:  cfg.Vocab,
		Word:   tensor.RandN(seed, 0.05, cfg.Vocab, cfg.Hidden),
		Gamma:  tensor.RandUniform(seed+1, 0.9, 1.1, cfg.Hidden),
		Beta:   tensor.RandN(seed+2, 0.02, cfg.Hidden),
	}
}

// posTable caches the sinusoidal position vectors for one hidden width, so a
// token pays an add per element instead of a pow, a sin and a cos. Row pos is
//
//	out[i], out[i+1] = sin(pos·f_i), cos(pos·f_i),  f_i = 10000^(−i/hidden), i even
//
// in float64, rounded once — the seed's per-token formula, bit for bit. Rows
// are filled on first touch, a doubling chunk at a time so that no request
// fills much more than its own length, and never written again; readers load
// the current row list with no lock, growth copies the list (sharing the
// rows) under mu.
type posTable struct {
	rows atomic.Pointer[[][]float32]
	mu   sync.Mutex
	freq []float64 // f_i by i/2; set with the first rows, under mu
}

func (t *posTable) row(pos, hidden int) []float32 {
	if p := t.rows.Load(); p != nil && pos < len(*p) {
		return (*p)[pos]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var old [][]float32
	if p := t.rows.Load(); p != nil {
		old = *p
	}
	if pos < len(old) {
		return old[pos]
	}
	if t.freq == nil {
		t.freq = make([]float64, (hidden+1)/2)
		for k := range t.freq {
			t.freq[k] = math.Pow(10000, -float64(2*k)/float64(hidden))
		}
	}
	rows := make([][]float32, max(2*len(old), pos+1, 32))
	copy(rows, old)
	fresh := make([]float32, (len(rows)-len(old))*hidden)
	for p := len(old); p < len(rows); p++ {
		rows[p], fresh = fresh[:hidden:hidden], fresh[hidden:]
		for i := 0; i < hidden; i += 2 {
			angle := float64(p) * t.freq[i/2]
			rows[p][i] = float32(math.Sin(angle))
			if i+1 < hidden {
				rows[p][i+1] = float32(math.Cos(angle))
			}
		}
	}
	t.rows.Store(&rows)
	return rows[pos]
}

// embedRow writes token tok's word embedding plus the position vector of pos
// into row [hidden]; the caller has checked tok against the vocabulary.
func (e *Embedding) embedRow(tok, pos int, row []float32) {
	word := e.Word.Data()[tok*e.Hidden : (tok+1)*e.Hidden]
	pe := e.pos.row(pos, e.Hidden)
	for i := range row {
		row[i] = word[i] + pe[i]
	}
}

// Encode embeds a padded batch of token ID sequences into
// [batch, maxLen, hidden]. Sequences shorter than maxLen are zero-padded.
func (e *Embedding) Encode(batchTokens [][]int) (*tensor.Tensor, []int, error) {
	batch := len(batchTokens)
	if batch == 0 {
		return nil, nil, fmt.Errorf("model: empty batch")
	}
	maxLen := 0
	seqLens := make([]int, batch)
	for i, toks := range batchTokens {
		seqLens[i] = len(toks)
		if len(toks) > maxLen {
			maxLen = len(toks)
		}
	}
	if maxLen == 0 {
		return nil, nil, fmt.Errorf("model: all sequences empty")
	}
	out := tensor.New(batch, maxLen, e.Hidden)
	for b, toks := range batchTokens {
		for s, tok := range toks {
			if tok < 0 || tok >= e.Vocab {
				return nil, nil, fmt.Errorf("model: token %d outside vocab [0,%d)", tok, e.Vocab)
			}
			e.embedRow(tok, s, out.Data()[(b*maxLen+s)*e.Hidden:(b*maxLen+s+1)*e.Hidden])
		}
	}
	// Normalise valid rows only; padding rows stay exactly zero so the
	// attention mask is the single source of truth for request length.
	for b, n := range seqLens {
		row := out.Data()[b*maxLen*e.Hidden : (b*maxLen+n)*e.Hidden]
		kernels.LayerNorm(row, e.Gamma.Data(), e.Beta.Data(), n, e.Hidden, 1e-5)
	}
	return out, seqLens, nil
}

// EncodePacked embeds a batch of token ID sequences into the zero-padding
// layout: requests laid out back-to-back as [totalTokens, hidden]. No
// padding row is ever written, so downstream kernels need no length mask.
// Every sequence must be non-empty — a ragged batch has no padding row for
// an empty request to hide behind.
func (e *Embedding) EncodePacked(batchTokens [][]int) (*tensor.Packed, error) {
	if len(batchTokens) == 0 {
		return nil, fmt.Errorf("model: empty batch")
	}
	seqLens := make([]int, len(batchTokens))
	for i, toks := range batchTokens {
		if len(toks) == 0 {
			return nil, fmt.Errorf("model: packed request %d is empty", i)
		}
		seqLens[i] = len(toks)
	}
	out := tensor.NewPacked(seqLens, e.Hidden)
	for b, toks := range batchTokens {
		base := out.Offset(b)
		for s, tok := range toks {
			if tok < 0 || tok >= e.Vocab {
				return nil, fmt.Errorf("model: token %d outside vocab [0,%d)", tok, e.Vocab)
			}
			e.embedRow(tok, s, out.Data().Data()[(base+s)*e.Hidden:(base+s+1)*e.Hidden])
		}
	}
	// One LayerNorm over all real rows — bit-identical to the padded path's
	// per-request normalisation because the kernel is row-wise.
	kernels.LayerNorm(out.Data().Data(), e.Gamma.Data(), e.Beta.Data(),
		out.TotalTokens(), e.Hidden, 1e-5)
	return out, nil
}
