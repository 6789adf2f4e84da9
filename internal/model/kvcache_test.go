package model

import "testing"

// TestRoundUpTokensClampAndPolicy: the growth policy keeps its 1.2×,
// chunk-rounded shape at normal sizes and clamps instead of overflowing at
// adversarial ones.
func TestRoundUpTokensClampAndPolicy(t *testing.T) {
	cases := []struct{ need, want int }{
		{0, KVChunkTokens},
		{1, KVChunkTokens},
		{10, KVChunkTokens},
		{KVChunkTokens, 2 * KVChunkTokens}, // 32×1.2 = 38.4 → 64
		{100, 4 * KVChunkTokens},           // 120 → 128
		{maxKVTokens, maxKVTokens},         // at the cap: no headroom, no overflow
		{maxKVTokens + 7, maxKVTokens + 7}, // past the cap: identity
	}
	for _, tc := range cases {
		if got := roundUpTokens(tc.need); got != tc.want {
			t.Fatalf("roundUpTokens(%d) = %d, want %d", tc.need, got, tc.want)
		}
	}
	// Monotone and never below need, across a sweep.
	prev := 0
	for need := 1; need < 4*KVChunkTokens; need++ {
		got := roundUpTokens(need)
		if got < need || got%KVChunkTokens != 0 || got < prev {
			t.Fatalf("roundUpTokens(%d) = %d violates policy", need, got)
		}
		prev = got
	}
}
