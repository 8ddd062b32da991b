package arch

import (
	"fmt"
	"sort"
)

// builders maps every buildable architecture name to its constructor
// over a prepared substrate. Build, BuildOn, Names and ValidateName all
// read this one table.
var builders = map[string]func(*Substrate) (System, error){
	// Static-NUCA baseline.
	"shared": func(s *Substrate) (System, error) { return NewSharedNUCA(s), nil },
	// Tiled private baseline.
	"private": func(s *Substrate) (System, error) { return NewTiled(s), nil },
	// SP-NUCA with flat LRU (the paper's choice), with shadow-tag
	// partitioning and with a static 12+4 partition (Fig. 4).
	"sp-nuca":        func(s *Substrate) (System, error) { return NewSPNUCA(s, FlatLRUPartition) },
	"sp-nuca-shadow": func(s *Substrate) (System, error) { return NewSPNUCA(s, ShadowTagPartition) },
	"sp-nuca-static": func(s *Substrate) (System, error) { return NewSPNUCA(s, StaticPartitionKind) },
	// ESP-NUCA with flat LRU (Fig. 5 baseline) and with protected LRU
	// (the proposal).
	"esp-nuca-flat": func(s *Substrate) (System, error) { return NewESPNUCA(s, false) },
	"esp-nuca":      func(s *Substrate) (System, error) { return NewESPNUCA(s, true) },
	// Idealized-perfect-search D-NUCA.
	"d-nuca": func(s *Substrate) (System, error) { return NewDNUCA(s), nil },
	// Adaptive Selective Replication.
	"asr": func(s *Substrate) (System, error) { return NewASR(s), nil },
	// Cooperative Caching at cfg.CCProbability.
	"cc": func(s *Substrate) (System, error) { return NewCC(s), nil },
}

// ValidateName reports an error naming the known architectures when
// name is not one of them.
func ValidateName(name string) error {
	if _, ok := builders[name]; !ok {
		return fmt.Errorf("arch: unknown architecture %q (known: %v)", name, Names())
	}
	return nil
}

// Build constructs an architecture by name (see Names) on a new
// substrate.
func Build(name string, cfg Config) (System, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	s, err := NewSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	return builders[name](s)
}

// BuildOn constructs an architecture by name over s, a substrate just
// built by NewSubstrate or returned to that state by Reset. Only the
// architecture's own state (policies, samplers, tables, counters) is
// allocated.
func BuildOn(name string, s *Substrate) (System, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	return builders[name](s)
}

// Simulation returns the architecture and configuration whose
// simulation running name on cfg is, event for event, so that a harness
// runs configurations that share them once. Cooperative Caching that
// never spills is the private system: NewCC gives it Tiled's write-back
// path, and its accesses are Tiled's. No other architecture reads
// CCProbability, so it is zeroed outside spilling CC.
func Simulation(name string, cfg Config) (string, Config) {
	if name == "cc" && cfg.CCProbability != 0 {
		return name, cfg
	}
	if name == "cc" {
		name = "private"
	}
	cfg.CCProbability = 0
	return name, cfg
}

// Names returns every buildable architecture name, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
