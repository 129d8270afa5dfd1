// Package sweep is the audited orchestration layer above the
// deterministic simulator: it fans independent (seed, config) run
// specs across a fixed-size worker pool and reassembles the results in
// spec order, so a parameter sweep uses every core without spending
// any of the determinism budget the engine's single-threaded contract
// buys.
//
// The package is the one place in the repository that starts
// goroutines. Its callers keep three rules:
//
//   - every worker closure captures only values (seeds, value-semantics
//     config structs) — never a live engine, an array, a pool, or a
//     variable another run writes;
//   - the only values crossing the channel boundary are the Spec and
//     the run's result, a plain value (a metric snapshot, a table row)
//     that holds no recorder, array or engine;
//   - each run stays single-threaded: the run function builds every
//     engine, array, and recorder it needs inside the call, in its own
//     arena.
//
// Because each run is then a pure function of its spec, the assembled
// output is byte-identical for any worker count. Two run-time gates
// check that: TestParallelEquivalence (internal/experiments) renders
// all four experiments that call Map (fig12, fig13, fault, regret) at
// widths 1, 2 and 8 and requires the same bytes, and `make race` runs
// it under the race detector. A closure that bumps a captured counter
// and feeds it into its seed fails both (seed I2 in
// docs/static-analysis.md).
package sweep

import "fmt"

// Spec identifies one independent run of a sweep: a dense index used
// for deterministic result reassembly, and the seed the run derives
// every random draw from. Spec is a pure value.
type Spec struct {
	Index int
	Seed  uint64
}

// result is the only type worker goroutines send back across the
// channel boundary: the spec's index, the run's value, and its error.
// Ownership of the value transfers with the send; the worker never
// touches it again.
type result[T any] struct {
	index int
	value T
	err   error
}

// Indexed builds the dense spec list [0, n): spec i carries index i
// and the shared seed (runs that need distinct seeds derive them from
// Seed and Index inside the run function, keeping the derivation
// explicit and reproducible).
func Indexed(n int, seed uint64) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Index: i, Seed: seed}
	}
	return specs
}

// Map runs fn over every spec on a fixed pool of `workers` goroutines
// and returns the results in spec order: out[i] is fn(specs[i]),
// regardless of worker count or completion order. Errors are
// deterministic too: the error of the lowest-index failing spec is
// returned, whichever worker hit it first.
//
// fn must be self-contained: build the array, engine, and recorders
// inside the call, return a plain value, and capture nothing mutable.
// A closure that shares a pointer, map, slice, counter or live engine
// with another run is a data race.
//
// workers <= 1 runs serially on the calling goroutine with no
// concurrency at all — the default path for tests and for builds where
// parallelism is disabled — and is byte-equivalent to every parallel
// schedule by construction.
func Map[T any](workers int, specs []Spec, fn func(Spec) (T, error)) ([]T, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for i, sp := range specs {
		if sp.Index != i {
			return nil, fmt.Errorf("sweep: spec %d carries index %d; indices must be dense and in order", i, sp.Index)
		}
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		out := make([]T, len(specs))
		for i, sp := range specs {
			v, err := fn(sp)
			if err != nil {
				return nil, fmt.Errorf("sweep: spec %d: %w", sp.Index, err)
			}
			out[i] = v
		}
		return out, nil
	}

	feed := make(chan Spec, len(specs))
	results := make(chan result[T], len(specs))
	for w := 0; w < workers; w++ {
		go func() {
			for sp := range feed {
				v, err := fn(sp)
				results <- result[T]{index: sp.Index, value: v, err: err}
			}
		}()
	}
	// Fed last spec first, the reverse of the serial loop: a run
	// whose result depends on call order (a captured counter, say)
	// then renders differently at any width above 1, every run, rather
	// than only when the scheduler reorders the workers.
	for i := len(specs) - 1; i >= 0; i-- {
		feed <- specs[i]
	}
	close(feed)

	out := make([]T, len(specs))
	errIndex := -1
	var firstErr error
	for range specs {
		r := <-results
		if r.err != nil {
			if errIndex < 0 || r.index < errIndex {
				errIndex, firstErr = r.index, r.err
			}
			continue
		}
		out[r.index] = r.value
	}
	if firstErr != nil {
		return nil, fmt.Errorf("sweep: spec %d: %w", errIndex, firstErr)
	}
	return out, nil
}
