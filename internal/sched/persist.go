package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// costSnapshot is the serialised form of a CachedCost dictionary — the
// paper stores the warm-up results "on disk or database ... and reloaded
// to memory when the serving module is restarted" (§5).
type costSnapshot struct {
	Lens     []int `json:"lens"`
	MaxBatch int   `json:"max_batch"`
	// TableNs[b-1][li] is the cost in nanoseconds.
	TableNs [][]int64 `json:"table_ns"`
}

// Save writes the dictionary as JSON.
func (c *CachedCost) Save(w io.Writer) error {
	snap := costSnapshot{Lens: c.lens, MaxBatch: c.maxBatch}
	snap.TableNs = make([][]int64, len(c.table))
	for b, row := range c.table {
		ns := make([]int64, len(row))
		for i, d := range row {
			ns[i] = int64(d)
		}
		snap.TableNs[b] = ns
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// LoadCachedCost reads a dictionary written by Save.
func LoadCachedCost(r io.Reader) (*CachedCost, error) {
	var snap costSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sched: decoding cached cost: %w", err)
	}
	if len(snap.Lens) == 0 || snap.Lens[0] < 1 || snap.MaxBatch < 1 || len(snap.TableNs) != snap.MaxBatch {
		return nil, fmt.Errorf("sched: malformed cached cost snapshot")
	}
	for i := 1; i < len(snap.Lens); i++ {
		if snap.Lens[i] <= snap.Lens[i-1] {
			return nil, fmt.Errorf("sched: cached cost lengths not strictly increasing")
		}
	}
	c := &CachedCost{lens: snap.Lens, maxBatch: snap.MaxBatch}
	c.table = make([][]time.Duration, snap.MaxBatch)
	for b, ns := range snap.TableNs {
		if len(ns) != len(snap.Lens) {
			return nil, fmt.Errorf("sched: cached cost row %d has %d entries, want %d", b, len(ns), len(snap.Lens))
		}
		row := make([]time.Duration, len(ns))
		for i, v := range ns {
			if v < 0 {
				return nil, fmt.Errorf("sched: negative cost in snapshot")
			}
			row[i] = time.Duration(v)
		}
		c.table[b] = row
	}
	return c, nil
}

// SaveFile persists the dictionary to path.
func (c *CachedCost) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Save(f)
}

// LoadCachedCostFile loads a dictionary from path.
func LoadCachedCostFile(path string) (*CachedCost, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCachedCost(f)
}
