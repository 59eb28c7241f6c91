// Fixture for the metricname analyzer: one well-formed registration, then
// the three failure modes — off-convention name, runtime-computed name,
// and a second registration site for an existing name.
package metricname

import "repro/internal/metrics"

type plumbing struct {
	ok *metrics.Counter
}

func wire(reg *metrics.Registry, user string) *plumbing {
	p := &plumbing{ok: reg.Counter("pool.fixture_ok")}
	reg.Counter("sessions_total")  // want "does not match"
	reg.Gauge("pool." + user)      // want "dynamic metric name"
	reg.Counter("pool.fixture_ok") // want "also registered at"
	reg.Histogram("stratum.fixture_latency_ns")
	return p
}
