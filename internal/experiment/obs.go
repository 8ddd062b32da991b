package experiment

import (
	"io"
	"os"
	"path/filepath"

	"espnuca/internal/arch"
	"espnuca/internal/obs"
	"espnuca/internal/sim"
)

// DefaultMetricsInterval is the sampling interval used when a registry is
// attached without an explicit one: fine enough to resolve the nmax
// adaptation transient within a quick run, coarse enough that snapshot
// cost stays negligible.
const DefaultMetricsInterval sim.Cycle = 5_000

// dispatchBounds buckets host-side event execution latency in
// nanoseconds for the engine dispatch histogram.
var dispatchBounds = []float64{100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000}

// engineProbe adapts obs instruments to the sim.Probe interface: each
// dispatched event records its host-side execution time and the queue
// depth after the pop.
type engineProbe struct {
	dispatchNS *obs.Histogram
	queueDepth *obs.Gauge
}

func (p *engineProbe) OnDispatch(now sim.Cycle, depth int, wallNS int64) {
	p.dispatchNS.Observe(float64(wallNS))
	p.queueDepth.Set(float64(depth))
}

// instrument wires a registry into a live engine + system pair: the
// substrate probes (per-bank hit rates, NoC, DRAM), the architecture's
// own probes when it implements arch.Observable (ESP-NUCA's nmax/EMA
// series), the engine dispatch probe, and a self-rescheduling tick event
// that closes one sampling interval every interval cycles. Interval 0
// uses DefaultMetricsInterval.
func instrument(eng *sim.Engine, sys arch.System, reg *obs.Registry, interval sim.Cycle) {
	if reg == nil {
		return
	}
	if interval == 0 {
		interval = DefaultMetricsInterval
	}
	sys.Sub().AttachObs(reg)
	if o, ok := sys.(arch.Observable); ok {
		o.AttachObs(reg)
	}
	eng.SetProbe(&engineProbe{
		dispatchNS: reg.Histogram("engine.dispatch_ns", dispatchBounds),
		queueDepth: reg.Gauge("engine.queue_depth"),
	})
	var tick sim.Event
	tick = func() {
		reg.Tick(uint64(eng.Now()))
		eng.Schedule(interval, tick)
	}
	eng.Schedule(interval, tick)
}

// ObsSpec configures per-run telemetry capture for matrix and figure
// runs: each cell gets its own registry whose interval snapshots land in
// Dir as <variant>_<workload>_s<seed>.metrics.jsonl (and, with Trace,
// a Perfetto-loadable <...>.trace.json alongside).
type ObsSpec struct {
	// Dir is the output directory; it is created if missing.
	Dir string
	// Interval is the sampling interval in cycles (0 uses
	// DefaultMetricsInterval).
	Interval sim.Cycle
	// Trace additionally records Chrome trace_event JSON per run.
	Trace bool
}

// open prepares the registry and sinks for one run written under every
// name in names: cells that are one simulation (Matrix.Run) each get the
// run's files. The returned finish must be called after the run
// completes; it flushes and closes the files and reports the first sink
// error.
func (sp *ObsSpec) open(names ...string) (*obs.Registry, func() error, error) {
	if err := os.MkdirAll(sp.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	files := make([]*os.File, 0, len(names))
	writers := make([]io.Writer, 0, len(names))
	closeAll := func() (err error) {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	for _, name := range names {
		f, err := os.Create(filepath.Join(sp.Dir, name+".metrics.jsonl"))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, f)
		writers = append(writers, f)
	}
	reg.AttachJSONL(io.MultiWriter(writers...))
	if sp.Trace {
		reg.EnableTrace()
	}
	finish := func() error {
		err := reg.Err()
		if cerr := closeAll(); err == nil {
			err = cerr
		}
		for _, name := range names {
			if !sp.Trace || err != nil {
				break
			}
			tf, terr := os.Create(filepath.Join(sp.Dir, name+".trace.json"))
			if terr != nil {
				return terr
			}
			err = reg.Trace().WriteJSON(tf)
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return reg, finish, nil
}
