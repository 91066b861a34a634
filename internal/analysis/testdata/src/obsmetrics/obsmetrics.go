// Package obsmetrics is golden testdata for the metric-registration
// analyzer. Registry stubs fedshap/internal/obs.Registry: the analyzer
// matches registrar methods by receiver type name, so the suite needs no
// import of the real package.
package obsmetrics

type Registry struct{}

func (r *Registry) NewCounter(name, help string, labels ...string) int { return 0 }

func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...string) {}

func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...string) int {
	return 0
}

func (r *Registry) NewCollector(name, help, typ string, collect func()) {}

func register(r *Registry, dynamic string) {
	r.NewCounter("fedvald_good_total", "A well-named counter.")
	r.NewCounter("fedvald_bad_counter", "Missing suffix.") // want "counter must end in _total"
	r.NewCounter("wrong_prefix_total", "Missing prefix.")  // want "process prefix"
	r.NewGaugeFunc("fedvald_depth_jobs", "A well-named gauge.", nil)
	r.NewGaugeFunc("fedvald_depth", "Bad gauge suffix.", nil) // want "gauge must end"
	r.NewHistogram("fedvald_latency_seconds", "A histogram.", nil)
	r.NewHistogram("fedvald_latency", "Bad histogram suffix.", nil)                                    // want "histogram must end"
	r.NewCounter(dynamic, "Dynamic name.")                                                             // want "not a compile-time constant"
	r.NewCounter("fedvald_nohelp_total", "")                                                           // want "empty help text"
	r.NewCounter("fedvald_varhelp_total", helpText())                                                  // want "help for metric"
	r.NewCounter("fedvald_odd_total", "Odd labels.", "k")                                              // want "odd number of label arguments"
	r.NewCounter("fedvald_wide_total", "Too many label keys.", "a", "1", "b", "2", "c", "3", "d", "4") // want "cardinality ceiling"
	r.NewCollector("fedvald_col_total", "A collector.", "counter", nil)
	r.NewCollector("fedvald_col_bad", "A collector.", "counter", nil) // want "counter must end in _total"
	//fedvallint:allow(obsmetrics) deliberately off-convention, pinned by the golden suite
	r.NewCounter("fedvald_suppressed", "Bad name, allowed.")
}

func helpText() string { return "not a constant" }
