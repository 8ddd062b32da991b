package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4), so any standard scraper can consume the same
// instruments the JSON /metricsz view serves. Instrument names are
// sanitized into the Prometheus alphabet (dots become underscores);
// counters and gauges map directly, a Series exports its most recent
// point as a gauge, and a Histogram exports both the cumulative
// `_bucket`/`_sum`/`_count` triplet and a derived `_summary` metric
// carrying the p50/p95/p99 quantiles, so percentiles are readable
// without PromQL.

// PromContentType is the Content-Type of WritePrometheus output.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes an instrument name into the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], mapping every other byte to '_' and prefixing
// a leading digit.
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
		default:
			b[i] = '_'
		}
	}
	if b[0] >= '0' && b[0] <= '9' {
		return "_" + string(b)
	}
	return string(b)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSplit splits an instrument name into its sanitized Prometheus
// metric name and an optional label suffix: a registry name like
// `bank.hit_rate{bank="3"}` becomes metric `bank_hit_rate` with label
// set `{bank="3"}`, so per-entity instruments render as one labeled
// metric family instead of N mangled names.
func promSplit(name string) (pn, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return PromName(name[:i]), name[i:]
	}
	return PromName(name), ""
}

// promMergeLabels appends extra (a bare `k="v"` pair) to a possibly-empty
// label set.
func promMergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// promMetric writes one `# TYPE` header plus sample lines.
type promWriter struct {
	w   *bufio.Writer
	err error
}

func (p *promWriter) header(name, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString("# TYPE " + name + " " + typ + "\n")
}

func (p *promWriter) sample(name, labels, value string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString(name + labels + " " + value + "\n")
}

// WritePrometheus writes every instrument in the registry to w in the
// Prometheus text exposition format. Output is deterministic (names are
// sorted) so tests can assert on it. Safe on a nil receiver (writes
// nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, series := r.Snapshot()
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	p := &promWriter{w: bufio.NewWriter(w)}
	// Sorted names keep labeled variants of one family adjacent, so the
	// `# TYPE` header is emitted once per family.
	lastHeader := ""
	for _, name := range sortedKeys(counters) {
		pn, labels := promSplit(name)
		if pn != lastHeader {
			p.header(pn, "counter")
			lastHeader = pn
		}
		p.sample(pn, labels, strconv.FormatUint(counters[name], 10))
	}
	lastHeader = ""
	for _, name := range sortedKeys(gauges) {
		pn, labels := promSplit(name)
		if pn != lastHeader {
			p.header(pn, "gauge")
			lastHeader = pn
		}
		p.sample(pn, labels, promFloat(gauges[name]))
	}
	lastHeader = ""
	for _, name := range sortedKeys(series) {
		pn, labels := promSplit(name)
		if pn != lastHeader {
			p.header(pn, "gauge")
			lastHeader = pn
		}
		p.sample(pn, labels, promFloat(series[name].V))
	}
	for _, name := range sortedKeys(hists) {
		pn, labels := promSplit(name)
		writePromHistogram(p, pn, labels, hists[name])
	}
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

func writePromHistogram(p *promWriter, pn, labels string, h *Histogram) {
	count, sum, buckets := h.Snapshot()
	bounds := h.Bounds()
	p.header(pn, "histogram")
	var cum uint64
	for i, bound := range bounds {
		cum += buckets[i]
		p.sample(pn+"_bucket", promMergeLabels(labels, `le="`+promFloat(bound)+`"`), strconv.FormatUint(cum, 10))
	}
	p.sample(pn+"_bucket", promMergeLabels(labels, `le="+Inf"`), strconv.FormatUint(count, 10))
	p.sample(pn+"_sum", labels, promFloat(sum))
	p.sample(pn+"_count", labels, strconv.FormatUint(count, 10))

	// Companion summary: the derived percentiles, so dashboards get
	// p50/p95/p99 without a histogram_quantile query.
	q := h.Quantiles(0.5, 0.95, 0.99)
	sn := pn + "_summary"
	p.header(sn, "summary")
	for i, rank := range []string{"0.5", "0.95", "0.99"} {
		p.sample(sn, promMergeLabels(labels, `quantile="`+rank+`"`), promFloat(q[i]))
	}
	p.sample(sn+"_sum", labels, promFloat(sum))
	p.sample(sn+"_count", labels, strconv.FormatUint(count, 10))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
