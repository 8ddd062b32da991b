// Package service turns the experiment harness into a long-running
// simulation service: a job model (single runs and whole matrices), a
// bounded priority scheduler with per-job deadlines and cancellation,
// and an HTTP API (cmd/espserved) that submits, watches and fetches
// jobs. Execution flows through internal/resultcache, so identical
// requests — across jobs, clients and restarts — reuse one simulation.
package service

import (
	"encoding/json"
	"fmt"
	"time"

	"espnuca/internal/experiment"
)

// Kind discriminates job payloads.
type Kind string

// Job kinds.
const (
	KindRun    Kind = "run"    // one (arch, workload, seed) simulation
	KindMatrix Kind = "matrix" // a full workloads x variants x seeds matrix
)

// RunSpec describes a single-simulation job. Its lowering and its
// validation live in experiment, which the espnuca facade shares.
type RunSpec = experiment.RunSpec

// VariantSpec names one architecture column of a matrix job. CCProb,
// when non-nil, overrides the cooperation probability (nil keeps the
// architecture's default; 0 is a meaningful override).
type VariantSpec struct {
	Label  string   `json:"label"`
	Arch   string   `json:"arch"`
	CCProb *float64 `json:"cc_prob,omitempty"`
}

// MatrixSpec describes a matrix job: the cross product of workloads,
// variants and seeds, exactly as experiment.Matrix runs it locally.
type MatrixSpec struct {
	Workloads []string      `json:"workloads"`
	Variants  []VariantSpec `json:"variants,omitempty"`
	// VariantSet selects a named variant family instead of (or in
	// addition to) explicit Variants: "counterparts" (the paper's §6
	// set), "cc" (the CC probability family), or "all" (both).
	VariantSet   string   `json:"variant_set,omitempty"`
	Seeds        []uint64 `json:"seeds,omitempty"`
	Warmup       uint64   `json:"warmup,omitempty"`
	Instructions uint64   `json:"instructions,omitempty"`
	// Parallelism bounds the worker pool this one matrix fans out over
	// (0 defers to the server's per-job default).
	Parallelism int `json:"parallelism,omitempty"`
}

// Matrix lowers the spec and ends in Matrix.Validate, so a bad spec is
// refused at submission. Only the wire shape (non-empty lists, the
// variant-set names) is checked here.
func (sp MatrixSpec) Matrix() (experiment.Matrix, error) {
	if len(sp.Workloads) == 0 {
		return experiment.Matrix{}, fmt.Errorf("service: matrix spec has no workloads")
	}
	var variants []experiment.Variant
	switch sp.VariantSet {
	case "":
	case "counterparts":
		variants = experiment.CounterpartVariants()
	case "cc":
		variants = experiment.CCFamily()
	case "all":
		variants = append(experiment.CounterpartVariants(), experiment.CCFamily()...)
	default:
		return experiment.Matrix{}, fmt.Errorf("service: unknown variant set %q", sp.VariantSet)
	}
	for _, v := range sp.Variants {
		ev := experiment.V(v.Label, v.Arch)
		if ev.Label == "" {
			ev.Label = v.Arch
		}
		if v.CCProb != nil {
			// experiment.Variant reads a negative CCProb as "no
			// override", so a negative one here would be ignored.
			if *v.CCProb < 0 {
				return experiment.Matrix{}, fmt.Errorf("service: variant %q: cc_prob %g outside [0,1]", ev.Label, *v.CCProb)
			}
			ev.CCProb = *v.CCProb
		}
		variants = append(variants, ev)
	}
	if len(variants) == 0 {
		return experiment.Matrix{}, fmt.Errorf("service: matrix spec has no variants")
	}
	m := experiment.NewMatrix(sp.Workloads, variants)
	if len(sp.Seeds) > 0 {
		m.Seeds = sp.Seeds
	}
	if sp.Warmup != 0 {
		m.Warmup = sp.Warmup
	}
	if sp.Instructions != 0 {
		m.Instructions = sp.Instructions
	}
	m.Parallelism = sp.Parallelism
	return m, m.Validate()
}

// JobSpec is one submission. Exactly one payload must match Kind (an
// empty Kind is inferred from the populated payload).
type JobSpec struct {
	Kind   Kind        `json:"kind,omitempty"`
	Run    *RunSpec    `json:"run,omitempty"`
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	// Priority orders the queue: higher runs sooner; equal priorities
	// run in submission order.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total latency (queue wait + execution)
	// in milliseconds from submission; 0 means no deadline. An expired
	// job fails with ErrDeadline's message.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// normalize infers Kind and checks the payload is well-formed.
func (sp *JobSpec) normalize() error {
	switch {
	case sp.Kind == "" && sp.Run != nil && sp.Matrix == nil:
		sp.Kind = KindRun
	case sp.Kind == "" && sp.Matrix != nil && sp.Run == nil:
		sp.Kind = KindMatrix
	}
	switch sp.Kind {
	case KindRun:
		if sp.Run == nil || sp.Matrix != nil {
			return fmt.Errorf("service: run job needs exactly the run payload")
		}
		_, err := sp.Run.Config()
		return err
	case KindMatrix:
		if sp.Matrix == nil || sp.Run != nil {
			return fmt.Errorf("service: matrix job needs exactly the matrix payload")
		}
		_, err := sp.Matrix.Matrix()
		return err
	default:
		return fmt.Errorf("service: unknown job kind %q", sp.Kind)
	}
}

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are Succeeded, Failed and Canceled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Progress counts completed work units (simulation cells for a matrix,
// 0/1 for a single run).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobView is the externally visible snapshot of a job, JSON-shaped for
// the HTTP API. Result is attached only when the job succeeded.
type JobView struct {
	ID         string          `json:"id"`
	Kind       Kind            `json:"kind"`
	State      State           `json:"state"`
	Priority   int             `json:"priority"`
	Progress   Progress        `json:"progress"`
	Error      string          `json:"error,omitempty"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	TraceID    string          `json:"trace_id,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}
