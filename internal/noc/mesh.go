// Package noc models the on-chip interconnection network: a 2D mesh with
// deterministic dimension-order (X-then-Y) routing, 128-bit links, and
// per-link contention.
//
// The evaluated system (paper Table 2, Figure 1a) has 8 processors, each
// attached to one router together with its 4 nearest L2 banks, arranged as
// a 4x2 mesh; two memory controllers sit on the mesh edges. A hop costs 5
// cycles (3 router + 2 link). Multi-flit messages pipeline through the
// network, so a message of F flits over H hops takes H*5 + (F-1) cycles
// plus any queueing at contended links.
package noc

import (
	"fmt"

	"espnuca/internal/sim"
)

// NodeID identifies a router in the mesh. CPU i and L2 banks 4i..4i+3
// attach to node i.
type NodeID int

// Config describes the mesh.
type Config struct {
	Cols, Rows int       // router grid (paper: 4x2)
	HopLatency sim.Cycle // per-hop latency, router+link (paper: 5)
	LinkBytes  int       // link width in bytes per flit (paper: 16 = 128 bits)
	// MemRouters[i] is the router to which memory channel i attaches.
	MemRouters []NodeID
}

// DefaultConfig is the paper's network.
func DefaultConfig() Config {
	return Config{
		Cols:       4,
		Rows:       2,
		HopLatency: 5,
		LinkBytes:  16,
		MemRouters: []NodeID{1, 6},
	}
}

// Class labels a message for traffic accounting.
type Class int

const (
	Control Class = iota // requests, acks, forwards (one flit)
	Data                 // data responses / write-backs (block + header)
)

// Mesh is the interconnect model. It is not safe for concurrent use; the
// simulator is single-threaded by design (deterministic replay).
type Mesh struct {
	cfg   Config
	nodes int
	// links[d*nodes+n] is the outgoing link of node n in direction d.
	links []sim.Resource
	// routes[from*nodes+to] is the DOR route from node from to node to:
	// the outgoing link each hop claims, in order. Every route is a
	// window of one backing array.
	routes [][]*sim.Resource

	// Stats.
	Messages    uint64
	FlitHops    uint64
	ControlMsgs uint64
	DataMsgs    uint64
}

// Directions for link indexing.
const (
	east = iota
	west
	north
	south
)

// New builds the mesh. The hop latency, link width and memory routers
// are used as given (arch.Config.Validate refuses zero ones).
func New(cfg Config) (*Mesh, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("noc: invalid grid %dx%d", cfg.Cols, cfg.Rows)
	}
	n := cfg.Cols * cfg.Rows
	for _, r := range cfg.MemRouters {
		if int(r) < 0 || int(r) >= n {
			return nil, fmt.Errorf("noc: memory router %d outside grid of %d nodes", r, n)
		}
	}
	m := &Mesh{cfg: cfg, nodes: n, links: make([]sim.Resource, 4*n), routes: make([][]*sim.Resource, n*n)}
	for i := range m.links {
		m.links[i] = *sim.NewResource(1)
	}
	var backing []*sim.Resource
	ends := make([]int, n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			path := m.Path(NodeID(from), NodeID(to))
			for i := 1; i < len(path); i++ {
				backing = append(backing, m.linkFor(path[i-1], path[i]))
			}
			ends[from*n+to] = len(backing)
		}
	}
	start := 0
	for i, end := range ends {
		m.routes[i] = backing[start:end:end]
		start = end
	}
	return m, nil
}

// Reset clears every link's bookings and the traffic counters, as New
// built them.
func (m *Mesh) Reset() {
	for i := range m.links {
		m.links[i].Reset()
	}
	m.Messages, m.FlitHops, m.ControlMsgs, m.DataMsgs = 0, 0, 0, 0
}

// Nodes returns the number of routers.
func (m *Mesh) Nodes() int { return m.nodes }

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// MemRouter returns the router of memory channel ch.
func (m *Mesh) MemRouter(ch int) NodeID {
	return m.cfg.MemRouters[ch%len(m.cfg.MemRouters)]
}

func (m *Mesh) coord(n NodeID) (x, y int) {
	return int(n) % m.cfg.Cols, int(n) / m.cfg.Cols
}

// Hops returns the DOR hop count between two nodes.
func (m *Mesh) Hops(from, to NodeID) int { return len(m.route(from, to)) }

// route returns the links a message from node from to node to claims.
func (m *Mesh) route(from, to NodeID) []*sim.Resource {
	return m.routes[int(from)*m.nodes+int(to)]
}

// Flits returns the number of flits for a payload of size bytes (plus an
// 8-byte header).
func (m *Mesh) Flits(size int) int {
	total := size + 8
	f := (total + m.cfg.LinkBytes - 1) / m.cfg.LinkBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Path returns the DOR (X then Y) sequence of nodes from 'from' to 'to',
// inclusive of both endpoints.
func (m *Mesh) Path(from, to NodeID) []NodeID {
	path := []NodeID{from}
	fx, fy := m.coord(from)
	tx, ty := m.coord(to)
	x, y := fx, fy
	for x != tx {
		if x < tx {
			x++
		} else {
			x--
		}
		path = append(path, NodeID(y*m.cfg.Cols+x))
	}
	for y != ty {
		if y < ty {
			y++
		} else {
			y--
		}
		path = append(path, NodeID(y*m.cfg.Cols+x))
	}
	return path
}

// Send injects a message of the given class and payload size at node from
// at cycle at, and returns the cycle the full message has arrived at node
// to. Same-node delivery (bank or controller attached to the requester's
// router) bypasses the network.
func (m *Mesh) Send(at sim.Cycle, from, to NodeID, class Class, size int) sim.Cycle {
	m.Messages++
	if class == Data {
		m.DataMsgs++
	} else {
		m.ControlMsgs++
	}
	if from == to {
		return at
	}
	flits := m.Flits(size)
	// Claim each hop's outgoing link along the precomputed DOR route as
	// it is reached: the head flit claims the link; the body occupies it
	// for one cycle per flit (wormhole pipelining).
	route := m.route(from, to)
	t := at
	for _, link := range route {
		t = link.ClaimFor(t, sim.Cycle(flits)) + m.cfg.HopLatency
	}
	m.FlitHops += uint64(flits * len(route))
	// Tail flit trails the head by flits-1 cycles.
	return t + sim.Cycle(flits-1)
}

// Latency returns the uncontended latency for a message (used by tests and
// by idealized architectures such as perfect-search D-NUCA).
func (m *Mesh) Latency(from, to NodeID, size int) sim.Cycle {
	if from == to {
		return 0
	}
	h := sim.Cycle(m.Hops(from, to))
	return h*m.cfg.HopLatency + sim.Cycle(m.Flits(size)-1)
}

// linkFor returns the outgoing link of node from toward its neighbour
// to.
func (m *Mesh) linkFor(from, to NodeID) *sim.Resource {
	fx, fy := m.coord(from)
	tx, ty := m.coord(to)
	dir := -1
	switch {
	case tx == fx+1 && ty == fy:
		dir = east
	case tx == fx-1 && ty == fy:
		dir = west
	case ty == fy+1 && tx == fx:
		dir = south
	case ty == fy-1 && tx == fx:
		dir = north
	}
	if dir >= 0 {
		return &m.links[dir*m.nodes+int(from)]
	}
	panic(fmt.Sprintf("noc: %d -> %d is not a mesh edge", from, to))
}

// LinkCount returns the number of unidirectional links the mesh models
// (four outgoing per router; edge links exist but never carry traffic
// under DOR routing).
func (m *Mesh) LinkCount() int { return 4 * m.nodes }

// LinkUtilization returns the mean link occupancy over the first now
// cycles, in [0,1], averaged across every link.
func (m *Mesh) LinkUtilization(now sim.Cycle) float64 {
	if now == 0 {
		return 0
	}
	var busy sim.Cycle
	for i := range m.links {
		busy += m.links[i].Busy
	}
	u := float64(busy) / (float64(now) * float64(m.LinkCount()))
	if u > 1 {
		u = 1
	}
	return u
}

// LinkWaits returns total cycles messages spent queued on links, an
// aggregate congestion indicator.
func (m *Mesh) LinkWaits() sim.Cycle {
	var w sim.Cycle
	for i := range m.links {
		w += m.links[i].Waits
	}
	return w
}
