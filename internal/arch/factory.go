package arch

import (
	"fmt"
	"sort"
)

// builders maps every buildable architecture name to its constructor.
// Build, Names and ValidateName all read this one table.
var builders = map[string]func(Config) (System, error){
	// Static-NUCA baseline.
	"shared": func(c Config) (System, error) { return NewSharedNUCA(c) },
	// Tiled private baseline.
	"private": func(c Config) (System, error) { return NewTiled(c) },
	// SP-NUCA with flat LRU (the paper's choice), with shadow-tag
	// partitioning and with a static 12+4 partition (Fig. 4).
	"sp-nuca":        func(c Config) (System, error) { return NewSPNUCA(c, FlatLRUPartition) },
	"sp-nuca-shadow": func(c Config) (System, error) { return NewSPNUCA(c, ShadowTagPartition) },
	"sp-nuca-static": func(c Config) (System, error) { return NewSPNUCA(c, StaticPartitionKind) },
	// ESP-NUCA with flat LRU (Fig. 5 baseline) and with protected LRU
	// (the proposal).
	"esp-nuca-flat": func(c Config) (System, error) { return NewESPNUCA(c, false) },
	"esp-nuca":      func(c Config) (System, error) { return NewESPNUCA(c, true) },
	// Idealized-perfect-search D-NUCA.
	"d-nuca": func(c Config) (System, error) { return NewDNUCA(c) },
	// Adaptive Selective Replication.
	"asr": func(c Config) (System, error) { return NewASR(c) },
	// Cooperative Caching at cfg.CCProbability.
	"cc": func(c Config) (System, error) { return NewCC(c) },
}

// ValidateName reports an error naming the known architectures when
// name is not one of them.
func ValidateName(name string) error {
	if _, ok := builders[name]; !ok {
		return fmt.Errorf("arch: unknown architecture %q (known: %v)", name, Names())
	}
	return nil
}

// Build constructs an architecture by name (see Names).
func Build(name string, cfg Config) (System, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	return builders[name](cfg)
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
