package model

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// spanWords flattens the first T rows of a view to comparable words: the
// binary16 storage itself, or the fp32 bit patterns (so NaNs compare).
func spanWords(v kernels.KVSpans, T, hidden int) []uint32 {
	flat := v.Flatten(T, hidden)
	var out []uint32
	for _, h := range flat.F16 {
		for _, w := range h {
			out = append(out, uint32(w))
		}
	}
	for _, f := range flat.F32 {
		for _, x := range f {
			out = append(out, math.Float32bits(x))
		}
	}
	return out
}

// attendSpans runs the decode-attention kernel for one session over T rows of
// the given views with a fixed query, and returns the context's bit patterns.
func attendSpans(keys, vals kernels.KVSpans, T, hidden int) []uint32 {
	const heads = 2
	q := make([]float32, hidden)
	for j := range q {
		q[j] = float32(j+1) * 0.25
	}
	ctx := make([]float32, hidden)
	var ws kernels.DecodeWorkspace
	ws.Attention(q, []kernels.KVSpans{keys}, []kernels.KVSpans{vals}, []int{T}, heads, hidden/heads, 0.5, make([]float32, heads*T), ctx)
	out := make([]uint32, hidden)
	for j, v := range ctx {
		out[j] = math.Float32bits(v)
	}
	return out
}

// FuzzKVSpansEquivalence drives a random op sequence — append+advance, open,
// MapFrom a prefix of another cache (so later appends copy-on-write a shared
// tail, on either holder), free — against paged BlockKVCaches at both
// precisions, each shadowed by a flat per-layer K and V slice in the test:
// kernels.OneSpan storage ([]float32, or []uint16 words on binary16) written
// through the same row cast. After every op the rows read back through the
// cache's span views must equal the shadow word for word (the view is the
// only thing the decode path sees), on binary16 the kernel must compute the
// same context from the shadow's decoded view as from the paged spans
// decoded at access, and at the end every pool block and both device KV
// gauges must be back at zero.
func FuzzKVSpansEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x41, 3, 0, 0, 0x81, 0, 0x41, 9, 0, 4, 0xc0, 0, 4, 4}, true)
	f.Add([]byte{0x40, 0x40, 0, 4, 8, 12, 16, 0x81, 5, 1, 5, 0xc1, 0, 0, 0x82, 2, 2, 6, 0xc0, 0xc2}, false)
	f.Fuzz(func(t *testing.T, ops []byte, half bool) {
		const layers, hidden, blockRows, capBlocks = 2, 4, 4, 64
		dev := allocator.NewDevice()
		pool := allocator.NewBlockPool(dev, blockRows*hidden*4, capBlocks)
		// No cache holds more rows than there are ops.
		maxRows := len(ops)/2 + 1
		type pair struct {
			paged  *BlockKVCache
			sk, sv []kernels.KVSpans // [layer]: one span of maxRows rows
			rows   int
		}
		var live []*pair
		open := func() *pair {
			p, err := newBlockKVCache(pool, layers, hidden, half)
			if err != nil {
				t.Fatal(err)
			}
			c := &pair{paged: p}
			for l := 0; l < layers; l++ {
				c.sk = append(c.sk, kernels.OneSpan(make([]float32, maxRows*hidden), maxRows, half))
				c.sv = append(c.sv, kernels.OneSpan(make([]float32, maxRows*hidden), maxRows, half))
			}
			return c
		}
		live = append(live, open())
		for i := 0; i+1 < len(ops) && len(live) > 0; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			c := live[int(op&0x3f)%len(live)]
			switch op >> 6 {
			case 0: // append one row to every layer, then commit it
				if !c.paged.EnsureAppendable() {
					continue // pool exhausted: the cache must be unchanged
				}
				row := make([]float32, hidden)
				for l := 0; l < layers; l++ {
					for j := range row {
						// Arbitrary bit patterns, NaNs and infinities included.
						row[j] = math.Float32frombits(uint32(arg+1) * uint32(2654435761+i*97+l*13+j))
					}
					c.paged.AppendRow(l, row, row)
					c.sk[l].PutRow(c.rows, row)
					c.sv[l].PutRow(c.rows, row)
				}
				c.paged.Advance()
				c.rows++
			case 1: // open an empty pair
				if len(live) < 6 {
					live = append(live, open())
				}
			case 2: // open a pair sharing a prefix of c by reference
				if len(live) >= 6 {
					continue
				}
				n := open()
				rows := arg % (c.paged.Len() + 1)
				if err := n.paged.MapFrom(c.paged, rows); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					for l := 0; l < layers; l++ {
						n.sk[l].CopyRow(r, c.sk[l], r, hidden)
						n.sv[l].CopyRow(r, c.sv[l], r, hidden)
					}
				}
				n.rows = rows
				live = append(live, n)
			case 3: // free
				c.paged.Free()
				idx := int(op&0x3f) % len(live)
				live = append(live[:idx], live[idx+1:]...)
			}
			for _, c := range live {
				T := c.paged.Len()
				if T != c.rows {
					t.Fatalf("op %d: paged holds %d rows, shadow %d", i/2, T, c.rows)
				}
				for l := 0; l < layers; l++ {
					pk, pv := c.paged.Spans(l)
					if half && T > 0 {
						// The view arm: the shadow rows as one span carrying
						// its decoded view, against the paged spans decoded at
						// access, through the one kernel.
						vk, vv := c.sk[l].Flatten(T, hidden), c.sv[l].Flatten(T, hidden)
						vk.View, vv.View = vk.Decoded(T, hidden), vv.Decoded(T, hidden)
						if got, want := attendSpans(vk, vv, T, hidden), attendSpans(pk, pv, T, hidden); !reflect.DeepEqual(got, want) {
							t.Fatalf("op %d layer %d: attention over the decoded view %x, over paged spans decoded at access %x", i/2, l, got, want)
						}
					}
					for _, cmp := range [2][2]kernels.KVSpans{{pk, c.sk[l]}, {pv, c.sv[l]}} {
						got, want := spanWords(cmp[0], T, hidden), spanWords(cmp[1], T, hidden)
						if len(got) != len(want) {
							t.Fatalf("op %d layer %d: %d words paged, %d in the shadow", i/2, l, len(got), len(want))
						}
						for w := range got {
							if got[w] != want[w] {
								t.Fatalf("op %d layer %d word %d: paged %#x, shadow %#x", i/2, l, w, got[w], want[w])
							}
						}
					}
				}
			}
		}
		for _, c := range live {
			c.paged.Free()
		}
		if free := pool.FreeBlocks(); free != capBlocks {
			t.Fatalf("%d pool blocks still held", capBlocks-free)
		}
		pool.Close()
		if s := dev.Snapshot(); s.KVReservedBytes != 0 || s.KVUsedBytes != 0 || s.LiveBytes != 0 {
			t.Fatalf("device not drained: reserved=%d used=%d live=%d", s.KVReservedBytes, s.KVUsedBytes, s.LiveBytes)
		}
	})
}
