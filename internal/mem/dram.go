package mem

import (
	"espnuca/internal/sim"
)

// DRAMConfig parameterizes the off-chip memory model.
type DRAMConfig struct {
	// Latency is the fixed access latency of an idle channel, in cycles.
	// The paper does not list it explicitly; GEMS-era studies on the same
	// infrastructure use 250-350 core cycles for DRAM + controller.
	Latency sim.Cycle
	// Interval is the initiation interval of a channel: a new request can
	// begin every Interval cycles (bandwidth model).
	Interval sim.Cycle
	// Channels is the number of independent memory controllers.
	Channels int
}

// DefaultDRAMConfig mirrors the evaluation setup: two memory controllers
// on the mesh edges.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Latency: 300, Interval: 16, Channels: 2}
}

// DRAM models the off-chip memory controllers. Addresses interleave across
// channels at block granularity; each channel is a contended resource with
// a fixed service latency.
type DRAM struct {
	cfg      DRAMConfig
	channels []*sim.Resource

	// Reads and Writes count accesses, for the off-chip traffic metrics
	// of Figure 7.
	Reads  uint64
	Writes uint64
}

// NewDRAM builds the memory model from cfg as given
// (arch.Config.Validate refuses zero fields).
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		d.channels = append(d.channels, sim.NewResource(cfg.Interval))
	}
	return d
}

// Config returns the memory configuration.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Channels returns the number of memory controllers.
func (d *DRAM) Channels() int { return d.cfg.Channels }

// Utilization returns the mean channel occupancy over the first now
// cycles, in [0,1].
func (d *DRAM) Utilization(now sim.Cycle) float64 {
	if now == 0 || len(d.channels) == 0 {
		return 0
	}
	var busy sim.Cycle
	for _, ch := range d.channels {
		busy += ch.Busy
	}
	u := float64(busy) / (float64(now) * float64(len(d.channels)))
	if u > 1 {
		u = 1
	}
	return u
}

// ChannelOf maps a line to its controller (block interleaving).
func (d *DRAM) ChannelOf(l Line) int { return int(uint64(l) % uint64(len(d.channels))) }

// Read schedules a read of line l arriving at the controller at cycle at
// and returns the cycle its data is available at the controller.
func (d *DRAM) Read(at sim.Cycle, l Line) sim.Cycle {
	d.Reads++
	return d.channels[d.ChannelOf(l)].Claim(at) + d.cfg.Latency
}

// Write schedules a write-back of line l arriving at cycle at and returns
// the cycle the controller has accepted it. Write-backs are posted: the
// requester does not wait for the array update.
func (d *DRAM) Write(at sim.Cycle, l Line) sim.Cycle {
	d.Writes++
	return d.channels[d.ChannelOf(l)].Claim(at)
}

// Accesses returns total off-chip accesses.
func (d *DRAM) Accesses() uint64 { return d.Reads + d.Writes }
