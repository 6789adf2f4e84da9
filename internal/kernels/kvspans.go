package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// KVSpans is one session's K (or V) rows for one layer, as the decode path
// sees them whatever store holds them: an ordered list of row spans, every
// span but the last holding exactly Rows rows of [hidden] elements, in one
// of two storage formats — fp32 (F32) or binary16 words (F16). A contiguous
// KV buffer is the one-span case, a paged cache is one span per block, the
// projected cross memory is one span. Spans may be longer than the rows
// they hold (a partially filled tail block, buffer headroom); readers are
// told how many rows to cover and never look past them.
//
// How KV is laid out and encoded is decided here and nowhere else: stores
// write rows through PutRow/CopyRow, the attention kernel and its per-row
// oracle read spans, and migration copies them with Flatten.
//
// A binary16 view whose rows never change again (the cross memory) may carry
// View: the same spans already decoded, span for span, which the kernel then
// reads instead of decoding F16 at every access. It is a cache of F16, never
// a second truth — Half stays true, Flatten and CopyRow move F16 only, and
// Decoded (the oracle's read) keeps expanding the stored words, so view ==
// fresh decode is checked wherever grouped == per-row is. Whoever sets it
// owns its lifetime and accounting (model.ccRef).
type KVSpans struct {
	F32  [][]float32 // fp32 storage; nil on a binary16 view
	F16  [][]uint16  // binary16 storage words; nil on an fp32 view
	View [][]float32 // optional: F16 decoded, span for span; immutable rows only
	Rows int         // rows per span
}

// OneSpan wraps rows×hidden values as a one-span view: the slice itself for
// fp32, a freshly encoded binary16 copy (the store-side cast) when half.
func OneSpan(data []float32, rows int, half bool) KVSpans {
	if !half {
		return KVSpans{F32: [][]float32{data}, Rows: rows}
	}
	return KVSpans{F16: [][]uint16{blas.EncodeHalf(data)}, Rows: rows}
}

// Half reports whether the view is binary16 storage.
func (s KVSpans) Half() bool { return s.F16 != nil }

// count returns how many spans cover T rows.
func (s KVSpans) count(T int) int { return (T + s.Rows - 1) / s.Rows }

// rowsIn returns how many of T rows span b holds.
func (s KVSpans) rowsIn(T, b int) int { return min(s.Rows, T-b*s.Rows) }

// Covers reports whether the view really holds T rows of hidden elements:
// enough spans, each long enough for the rows it must supply.
func (s KVSpans) Covers(T, hidden int) bool {
	if T == 0 {
		return true
	}
	if T < 0 || s.Rows < 1 || (s.F32 != nil) == (s.F16 != nil) {
		return false
	}
	nb := s.count(T)
	if max(len(s.F32), len(s.F16)) < nb || (s.View != nil && (!s.Half() || len(s.View) < nb)) {
		return false
	}
	for b := 0; b < nb; b++ {
		var have int
		if s.Half() {
			have = len(s.F16[b])
		} else {
			have = len(s.F32[b])
		}
		if s.View != nil {
			have = min(have, len(s.View[b]))
		}
		if have < s.rowsIn(T, b)*hidden {
			return false
		}
	}
	return true
}

// PutRow stores one [hidden] fp32 row at row index t: copied into fp32
// storage, rounded through binary16 into half storage — the write-side cast
// of the fp16 route, the conversion a Tensor Core store performs.
func (s KVSpans) PutRow(t int, row []float32) {
	s.mustBeWritable()
	b, off := t/s.Rows, (t%s.Rows)*len(row)
	if s.Half() {
		tensor.EncodeF16Slice(s.F16[b][off:off+len(row)], row)
		return
	}
	copy(s.F32[b][off:off+len(row)], row)
}

// CopyRow stores row ts of src — a view of the same format — at row index t
// as raw storage words: no float32 round trip, so a migrated binary16 row is
// the exporter's exact bits (NaN payloads and all).
func (s KVSpans) CopyRow(t int, src KVSpans, ts, hidden int) {
	if s.Half() != src.Half() {
		panic("kernels: CopyRow across storage formats")
	}
	s.mustBeWritable()
	b, off := t/s.Rows, (t%s.Rows)*hidden
	sb, soff := ts/src.Rows, (ts%src.Rows)*hidden
	if s.Half() {
		copy(s.F16[b][off:off+hidden], src.F16[sb][soff:soff+hidden])
		return
	}
	copy(s.F32[b][off:off+hidden], src.F32[sb][soff:soff+hidden])
}

// mustBeWritable panics on a write through a view that carries decoded spans:
// the write would leave them stale.
func (s KVSpans) mustBeWritable() {
	if s.View != nil {
		panic("kernels: row written through a decoded view")
	}
}

// Flatten deep-copies the first T rows into a one-span view of the same
// format — plain heap data sharing nothing with the store it came from, the
// decoded view included: the copy has none.
func (s KVSpans) Flatten(T, hidden int) KVSpans {
	if !s.Covers(T, hidden) {
		panic(fmt.Sprintf("kernels: flatten of %d rows from a view that does not hold them", T))
	}
	out := KVSpans{Rows: max(T, 1)}
	if s.Half() {
		out.F16 = [][]uint16{make([]uint16, T*hidden)}
	} else {
		out.F32 = [][]float32{make([]float32, T*hidden)}
	}
	for b := 0; b < s.count(T); b++ {
		lo, n := b*s.Rows*hidden, s.rowsIn(T, b)*hidden
		if s.Half() {
			copy(out.F16[0][lo:lo+n], s.F16[b][:n])
		} else {
			copy(out.F32[0][lo:lo+n], s.F32[b][:n])
		}
	}
	return out
}

// decodeSpan returns span b's first n elements as float32: the storage
// itself on an fp32 view, the decoded view where a half view carries one,
// else the binary16 words expanded into scratch[at:at+n] (the Tensor Core
// load conversion).
func (s KVSpans) decodeSpan(b, n int, scratch []float32, at int) []float32 {
	if !s.Half() {
		return s.F32[b][:n]
	}
	if s.View != nil {
		return s.View[b][:n]
	}
	dst := scratch[at : at+n]
	tensor.DecodeF16Slice(dst, s.F16[b][:n])
	return dst
}

// Decoded returns the first T rows as float32, span by span, each trimmed to
// the rows it holds: the storage itself on an fp32 view, fresh expansions of
// the stored words on a half view — never its View. It allocates — this is
// the per-row oracle's read; the kernel decodes into workspace scratch
// instead.
func (s KVSpans) Decoded(T, hidden int) [][]float32 {
	if !s.Covers(T, hidden) {
		panic(fmt.Sprintf("kernels: view does not hold %d rows of %d", T, hidden))
	}
	s.View = nil
	var scratch []float32
	if s.Half() {
		scratch = make([]float32, T*hidden)
	}
	out := make([][]float32, s.count(T))
	for b := range out {
		out[b] = s.decodeSpan(b, s.rowsIn(T, b)*hidden, scratch, b*s.Rows*hidden)
	}
	return out
}
