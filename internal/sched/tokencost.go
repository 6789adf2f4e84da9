package sched

import "time"

// TokenCost prices batches by work actually done, the cost structure of the
// packed (zero-padding) engine:
//
//	cost = Fixed + PerToken·Σlen_i + PerSqToken·Σlen_i²
//
// Fixed is the per-batch launch/planning overhead (what makes batching
// worthwhile at all), PerToken covers the GEMM/elementwise work that is
// linear in rows, and PerSqToken covers attention's quadratic score blocks.
// All coefficients are in nanoseconds. CachedCost.Fit derives one from a
// warm-up dictionary.
//
// The same coefficients price one request for replica routing: the Router
// charges a replica RequestCost when it admits a job and refunds it when
// the job resolves, and a role-tagged Router prices the prefill and decode
// phases separately.
type TokenCost struct {
	Fixed      float64
	PerToken   float64
	PerSqToken float64
}

// TokenCounts is the zero-knowledge route price: one unit per token, prompt
// and decode alike. It is the Router's default before any warm-up fit
// exists — relative load still tracks true work because every replica is
// priced by the same unit.
var TokenCounts = &TokenCost{PerToken: 1}

// BatchCost implements CostModel from the shape's token totals. (On the
// packed engine padding never executes, so on uniform batches this agrees
// with the padded reading of the same warm-up.)
func (c *TokenCost) BatchCost(s Shape) time.Duration {
	return time.Duration(c.Fixed + c.PerToken*float64(s.Tokens) + c.PerSqToken*float64(s.SqTokens))
}

// PrefillCost prices the packed prefill pass of promptTokens: the usual
// three-term cost of the prompt alone.
func (c *TokenCost) PrefillCost(promptTokens int) time.Duration {
	p := float64(promptTokens)
	return time.Duration(c.Fixed + c.PerToken*p + c.PerSqToken*p*p)
}

// DecodeCost prices newTokens decode steps, each one token attending a
// context that ends at promptTokens+newTokens (the worst-case KV length the
// serving layer also reserves by).
func (c *TokenCost) DecodeCost(promptTokens, newTokens int) time.Duration {
	p, n := float64(promptTokens), float64(newTokens)
	return time.Duration(c.PerToken*n + c.PerSqToken*n*(p+n))
}

// RequestCost estimates the device time one request will consume:
// promptTokens of prefill plus newTokens of decode (0 for one-shot
// classification). It is never below one unit, so an empty request is
// still charged and refunded.
func (c *TokenCost) RequestCost(promptTokens, newTokens int) time.Duration {
	p, n := float64(promptTokens), float64(newTokens)
	prefill := c.Fixed + c.PerToken*p + c.PerSqToken*p*p
	decode := c.PerToken*n + c.PerSqToken*n*(p+n)
	return max(time.Duration(prefill+decode), 1)
}
