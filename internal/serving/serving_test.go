package serving

import "testing"

func TestResponseCacheLRU(t *testing.T) {
	c := NewResponseCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("miss on a")
	}
	c.Put("c", 3) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.ll.Len() != 2 {
		t.Fatalf("len: %d", c.ll.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats: %d/%d", hits, misses)
	}
}

func TestResponseCacheUpdate(t *testing.T) {
	c := NewResponseCache(2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v.(int) != 9 {
		t.Fatal("update failed")
	}
	if c.ll.Len() != 1 {
		t.Fatal("duplicate key grew the cache")
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("hi", 512)
	if len(toks) != 2 {
		t.Fatalf("tokens: %v", toks)
	}
	for _, tok := range toks {
		if tok < 3 || tok >= 512 {
			t.Fatalf("token %d outside [3,512)", tok)
		}
	}
	if len(Tokenize("", 512)) != 0 {
		t.Fatal("empty text should produce no tokens")
	}
}
