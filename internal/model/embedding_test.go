package model

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// positionEncoding is the seed's per-token formula, kept as the reference the
// table is held to.
func positionEncoding(pos, hidden int, out []float32) {
	for i := 0; i < hidden; i += 2 {
		freq := math.Pow(10000, -float64(i)/float64(hidden))
		angle := float64(pos) * freq
		out[i] = float32(math.Sin(angle))
		if i+1 < hidden {
			out[i+1] = float32(math.Cos(angle))
		}
	}
}

// TestPositionTableEqualsFormula: a cached row is the formula's output bit
// for bit, at even, odd and power-of-two widths, well past any model's
// window.
func TestPositionTableEqualsFormula(t *testing.T) {
	for _, hidden := range []int{2, 6, 127, 128} {
		var table posTable
		want := make([]float32, hidden)
		for pos := 0; pos < 4096; pos++ {
			positionEncoding(pos, hidden, want)
			got := table.row(pos, hidden)
			if len(got) != hidden {
				t.Fatalf("hidden %d pos %d: row of %d", hidden, pos, len(got))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("hidden %d pos %d [%d]: table %g, formula %g", hidden, pos, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPositionTableFirstTouchIsRaceFree grows one cold table from eight
// goroutines at once (run under -race): every reader must see finished rows,
// whichever goroutine filled them.
func TestPositionTableFirstTouchIsRaceFree(t *testing.T) {
	const hidden, limit = 6, 1500
	var table posTable
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			want := make([]float32, hidden)
			for n := 0; n < 400; n++ {
				pos := rng.Intn(limit)
				positionEncoding(pos, hidden, want)
				for i, v := range table.row(pos, hidden) {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Errorf("pos %d [%d]: table %g, formula %g", pos, i, v, want[i])
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// BenchmarkEncodePacked is the embedding layer on a classify-varlen-shaped
// batch: seven short requests and a long one, the ledger's hidden width.
func BenchmarkEncodePacked(b *testing.B) {
	cfg := BertBase().Scaled(128, 4, 512, 2)
	emb := NewEmbedding(cfg, 12)
	rng := rand.New(rand.NewSource(1))
	batch := make([][]int, 8)
	tokens := 0
	for i := range batch {
		n := 8 + rng.Intn(24)
		if i == 0 {
			n = 120
		}
		batch[i] = make([]int, n)
		for j := range batch[i] {
			batch[i][j] = rng.Intn(cfg.Vocab)
		}
		tokens += n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emb.EncodePacked(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tokens), "ns/token")
}
