package bench

import "time"

// The bench package is simulation-bound: modeled experiments replay on the
// virtual clock, and turbo-vet's wallclock analyzer forbids ambient
// time.Now/Since/Sleep here. The experiments tagged Live measure real code
// — fig13 times the Algorithm 1 planner, var-length the padded and packed
// encoders, prefix-cache two generation servers — where wall clock is the
// measurement, not a leak. Those three are the only callers of this file, so
// every wall-clock escape in the package is annotated in exactly one place,
// and a modeled experiment can't reach for time.Now out of habit without
// tripping vet (or its golden file).

// liveNow reads the wall clock for a live-system measurement.
func liveNow() time.Time {
	return time.Now() //turbovet:allow wallclock -- live-measurement stopwatch, the one deliberate wall-clock read
}

// liveSince is time.Since for live-system measurements.
func liveSince(start time.Time) time.Duration {
	return liveNow().Sub(start)
}
