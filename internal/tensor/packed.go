package tensor

import "fmt"

// Packed is the zero-padding (ragged) batch layout: a batch of
// variable-length sequences stored back-to-back as [totalTokens, cols] with
// per-request offsets, instead of zero-padded to [batch, maxLen, cols].
// This is the layout TurboTransformers' variable-length claim rests on —
// competing runtimes pad every request to the batch maximum and burn FLOPs
// on zeros, while the packed path never materialises a padding row.
//
// Request i owns rows [Offset(i), Offset(i+1)) of Data.
type Packed struct {
	data *Tensor // [totalTokens, cols]
	lens []int   // per-request true lengths
	offs []int   // prefix sums, len(lens)+1 entries, offs[0] == 0
}

// NewPacked allocates a zero-filled packed batch with the given per-request
// lengths and row width. Every length must be positive: a packed batch has
// no padding rows to hide an empty request behind.
func NewPacked(lens []int, cols int) *Packed {
	offs, total := prefixSums(lens)
	return &Packed{
		data: New(total, cols),
		lens: append([]int(nil), lens...),
		offs: offs,
	}
}

func prefixSums(lens []int) ([]int, int) {
	if len(lens) == 0 {
		panic("tensor: packed batch needs at least one request")
	}
	offs := make([]int, len(lens)+1)
	for i, n := range lens {
		if n <= 0 {
			panic(fmt.Sprintf("tensor: packed request %d has non-positive length %d", i, n))
		}
		offs[i+1] = offs[i] + n
	}
	return offs, offs[len(lens)]
}

// PackPadded copies the valid rows of a padded [batch, maxLen, cols] tensor
// into a fresh packed batch. lens gives each request's true length.
func PackPadded(padded *Tensor, lens []int) *Packed {
	if padded.Rank() != 3 {
		panic(fmt.Sprintf("tensor: PackPadded wants rank 3, got shape %v", padded.Shape()))
	}
	batch, maxLen, cols := padded.Dim(0), padded.Dim(1), padded.Dim(2)
	if len(lens) != batch {
		panic(fmt.Sprintf("tensor: PackPadded %d lens for batch %d", len(lens), batch))
	}
	p := NewPacked(lens, cols)
	for b, n := range lens {
		if n > maxLen {
			panic(fmt.Sprintf("tensor: PackPadded request %d length %d > maxLen %d", b, n, maxLen))
		}
		src := padded.Data()[b*maxLen*cols : (b*maxLen+n)*cols]
		copy(p.Request(b).Data(), src)
	}
	return p
}

// Data returns the underlying [totalTokens, cols] tensor.
func (p *Packed) Data() *Tensor { return p.data }

// Lens returns the per-request lengths. The slice must not be mutated.
func (p *Packed) Lens() []int { return p.lens }

// Offsets returns the row prefix sums (len = Batch()+1, Offsets()[0] == 0).
// The slice must not be mutated.
func (p *Packed) Offsets() []int { return p.offs }

// Offset returns the first row of request i.
func (p *Packed) Offset(i int) int { return p.offs[i] }

// Batch returns the number of requests.
func (p *Packed) Batch() int { return len(p.lens) }

// Cols returns the row width.
func (p *Packed) Cols() int { return p.data.Dim(1) }

// TotalTokens returns the number of real rows — the batch's actual work.
func (p *Packed) TotalTokens() int { return p.offs[len(p.lens)] }

// MaxLen returns the longest request length (what padding would stretch
// every request to).
func (p *Packed) MaxLen() int {
	m := 0
	for _, n := range p.lens {
		if n > m {
			m = n
		}
	}
	return m
}

// PaddedTokens returns Batch()*MaxLen(): the rows a padded execution of the
// same batch would compute.
func (p *Packed) PaddedTokens() int { return p.Batch() * p.MaxLen() }

// PaddingWaste returns the fraction of a padded execution's rows that would
// be padding: 1 - TotalTokens/PaddedTokens.
func (p *Packed) PaddingWaste() float64 {
	return 1 - float64(p.TotalTokens())/float64(p.PaddedTokens())
}

// Request returns a [len_i, cols] view of request i's rows.
func (p *Packed) Request(i int) *Tensor {
	return p.data.SliceAxis0(p.offs[i], p.offs[i+1])
}

// ToPadded scatters the packed rows into a zero-padded
// [batch, maxLen, cols] tensor (padding rows exactly zero), for callers
// that need the dense layout or for oracle comparisons against it.
func (p *Packed) ToPadded() *Tensor {
	batch, maxLen, cols := p.Batch(), p.MaxLen(), p.Cols()
	out := New(batch, maxLen, cols)
	for b, n := range p.lens {
		dst := out.Data()[b*maxLen*cols : (b*maxLen+n)*cols]
		copy(dst, p.Request(b).Data())
	}
	return out
}

// LikePacked allocates a zero-filled packed batch with the same request
// structure as p but a different row width.
func (p *Packed) LikePacked(cols int) *Packed {
	return NewPacked(p.lens, cols)
}

// String renders a short description.
func (p *Packed) String() string {
	return fmt.Sprintf("Packed{batch=%d tokens=%d maxLen=%d cols=%d}",
		p.Batch(), p.TotalTokens(), p.MaxLen(), p.Cols())
}
