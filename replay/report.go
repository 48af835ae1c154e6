package replay

import "encoding/json"

// Report is a conformance run's result.
type Report struct {
	// Passed is true when every assertion held.
	Passed bool

	Conformance []ConformanceRun
	Asserts     []Assertion

	// SlowestTrace is the slowest successful conformance run's full
	// server-side trace, fetched from /debug/traces when the driver runs
	// with tracing on and a TracesURL.
	SlowestTrace *SlowestTrace
}

// SlowestTrace names the worst conformance run and carries its Chrome
// trace_event export (loadable in chrome://tracing or Perfetto).
type SlowestTrace struct {
	Query     string
	DOP       int
	TraceID   string
	ElapsedMS float64
	Chrome    json.RawMessage
}

// ConformanceRun is one execution of the sequential conformance pass.
type ConformanceRun struct {
	Query        string
	DOP          int
	Run          int
	Code         string
	Rows         int64
	ElapsedMS    float64
	SpoolBuilds  int64
	SpoolHits    int64
	PlanCacheHit bool
	TraceID      string
}

// Assertion is one checked expectation, from the manifest or built in.
type Assertion struct {
	Name   string
	OK     bool
	Detail string
}
