// Package model implements the execution-time models of Section IV-B used to
// predict the run time of moldable parallel tasks, plus related-work models
// (Downey) and an empirical table-driven model.
//
// A Model answers one question: how long does task v take on p processors of
// cluster c? EMTS is deliberately model-agnostic (Section III), so every
// algorithm in this repository only interacts with models through this
// interface. The Table type precomputes all (task, p) times for one graph and
// cluster, which is what makes the evolutionary search's fitness evaluation
// cheap.
package model

import (
	"fmt"
	"math"
	"sync/atomic"

	"emts/internal/dag"
	"emts/internal/platform"
)

// Model predicts the execution time of moldable tasks.
type Model interface {
	// Name identifies the model in reports ("amdahl", "synthetic", ...).
	Name() string
	// Time returns the predicted execution time in seconds of task v running
	// on p processors of cluster c, for 1 <= p <= c.Procs. Implementations
	// must return a positive, finite value for valid inputs.
	Time(v dag.Task, p int, c platform.Cluster) float64
}

// Amdahl is Model 1 of the paper: with alpha the fraction of
// non-parallelizable code of a task, T(v,p) = (alpha + (1-alpha)/p) * T(v,1),
// where T(v,1) = Flops / speed. The execution time is monotonically
// non-increasing in p.
type Amdahl struct{}

// Name implements Model.
func (Amdahl) Name() string { return "amdahl" }

// Time implements Model.
func (Amdahl) Time(v dag.Task, p int, c platform.Cluster) float64 {
	seq := c.SequentialTime(v.Flops)
	return (v.Alpha + (1-v.Alpha)/float64(p)) * seq
}

// Synthetic is Model 2 of the paper: Amdahl's law with penalties that imitate
// the non-monotonic run-time characteristics of PDGEMM (Figure 1). Following
// the prose of Section IV-B ("slightly increases the execution time ... if the
// number of processors is not a multiple of 2 or if this number has no integer
// square root"):
//
//	T(v,p) = Amdahl(v,p)        if p == 1
//	T(v,p) = 1.3 * Amdahl(v,p)  if p > 1 and p is odd
//	T(v,p) = 1.1 * Amdahl(v,p)  if p > 1, p is even and sqrt(p) is not integer
//	T(v,p) = Amdahl(v,p)        otherwise (even perfect squares: 4, 16, 36, ...)
//
// See DESIGN.md item 4.1 for why the prose, not the garbled pseudo-code, is
// followed; SyntheticLiteral implements the literal pseudo-code for
// comparison.
type Synthetic struct{}

// Name implements Model.
func (Synthetic) Name() string { return "synthetic" }

// Time implements Model.
func (Synthetic) Time(v dag.Task, p int, c platform.Cluster) float64 {
	t := Amdahl{}.Time(v, p, c)
	if p > 1 {
		switch {
		case p%2 == 1:
			t *= 1.3
		case !isPerfectSquare(p):
			t *= 1.1
		}
	}
	return t
}

// SyntheticLiteral implements Algorithm 1 exactly as printed in the paper
// (penalizing perfect squares with 1.1 instead of non-squares). It exists only
// to document and test the difference from the prose-based Synthetic model.
type SyntheticLiteral struct{}

// Name implements Model.
func (SyntheticLiteral) Name() string { return "synthetic-literal" }

// Time implements Model.
func (SyntheticLiteral) Time(v dag.Task, p int, c platform.Cluster) float64 {
	t := Amdahl{}.Time(v, p, c)
	if p > 1 {
		switch {
		case p%2 == 1:
			t *= 1.3
		case isPerfectSquare(p):
			t *= 1.1
		}
	}
	return t
}

func isPerfectSquare(p int) bool {
	r := int(math.Round(math.Sqrt(float64(p))))
	return r*r == p
}

// Downey implements the speedup model of Downey (related work, Section II-B:
// "A Model for Speedup of Parallel Programs", UCB CSD-97-933). Each task is
// characterized by its average parallelism A and the variance of parallelism
// sigma. T(v,p) = T(v,1) / S(p) with the piecewise speedup function below.
//
// If PerTask is nil, A and Sigma apply to every task; otherwise PerTask
// supplies per-task parameters (e.g. derived from the task's alpha).
type Downey struct {
	// A is the average parallelism (>= 1).
	A float64
	// Sigma is the coefficient of variance of parallelism (>= 0).
	Sigma float64
	// PerTask optionally overrides A and Sigma per task.
	PerTask func(v dag.Task) (a, sigma float64)
}

// Name implements Model.
func (Downey) Name() string { return "downey" }

// Speedup returns Downey's speedup S(p) for average parallelism a and
// variance sigma.
func Speedup(p int, a, sigma float64) float64 {
	n := float64(p)
	if a <= 1 {
		return 1
	}
	switch {
	case sigma <= 1:
		switch {
		case n <= a:
			s := a * n / (a + sigma/2*(n-1))
			return s
		case n <= 2*a-1:
			return a * n / (sigma*(a-0.5) + n*(1-sigma/2))
		default:
			return a
		}
	default:
		if n <= a+a*sigma-sigma {
			return n * a * (sigma + 1) / (sigma*(n+a-1) + a)
		}
		return a
	}
}

// Time implements Model.
func (d Downey) Time(v dag.Task, p int, c platform.Cluster) float64 {
	a, sigma := d.A, d.Sigma
	if d.PerTask != nil {
		a, sigma = d.PerTask(v)
	}
	s := Speedup(p, a, sigma)
	if s < 1 {
		s = 1
	}
	return c.SequentialTime(v.Flops) / s
}

// Func adapts a closure into a Model, for user-defined (possibly
// non-monotonic) empirical models; see examples/custommodel.
type Func struct {
	// ModelName is returned by Name.
	ModelName string
	// F computes the execution time.
	F func(v dag.Task, p int, c platform.Cluster) float64
}

// Name implements Model.
func (f Func) Name() string {
	if f.ModelName == "" {
		return "func"
	}
	return f.ModelName
}

// Time implements Model.
func (f Func) Time(v dag.Task, p int, c platform.Cluster) float64 { return f.F(v, p, c) }

// Table is a fully materialized execution-time table for one graph on one
// cluster: T(v, p) = times[v*procs + p-1]. Building the table evaluates the
// underlying model V*P times once; afterwards every query is an array load.
// All scheduling algorithms in this repository work from a Table.
//
// The layout is a single row-major []float64 rather than a slice of per-task
// rows: Time is the single most frequent call in the fitness evaluation (V·P
// probes per mapping), and the flat layout removes one pointer chase per
// probe while keeping each task's row contiguous and cache-resident.
type Table struct {
	name  string
	procs int
	tasks int
	times []float64
	// seeds is the write-once-per-graph seed memo (see SeedMemo). Like
	// dag.Graph's precedence levels it is a pure function of immutable
	// values, memoized on the value that outlives the runs reading it.
	seeds atomic.Pointer[SeedMemo]
}

// SeedMemo records what a run's deterministic starting heuristics produced
// for one graph on a Table: each seed's clamped allocation and mapped
// makespan, or the error that made it fail. Its holder fills it once and
// never modifies it afterwards; readers must copy Alloc before changing it.
type SeedMemo struct {
	// Graph is the graph the seeds were computed for. A table can be paired
	// with different *dag.Graph values of the same shape, so the memo only
	// answers for this pointer.
	Graph *dag.Graph
	// Seeds are the outcomes in the order the heuristics ran.
	Seeds []SeedOutcome
}

// SeedOutcome is one starting heuristic's entry in a SeedMemo.
type SeedOutcome struct {
	Alloc    []int
	Makespan float64
	Err      error
}

// row returns the contiguous P execution times of task v.
func (t *Table) row(v dag.TaskID) []float64 {
	lo := int(v) * t.procs
	return t.times[lo : lo+t.procs]
}

// NewTable evaluates m for every task of g and every processor count
// 1..c.Procs. It fails if the model produces a non-positive or non-finite
// time, so broken models are caught at the boundary instead of corrupting
// schedules.
func NewTable(g *dag.Graph, m Model, c platform.Cluster) (*Table, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	t := &Table{name: m.Name(), procs: c.Procs, tasks: n, times: make([]float64, n*c.Procs)}
	for i := 0; i < n; i++ {
		task := g.Task(dag.TaskID(i))
		row := t.row(dag.TaskID(i))
		for p := 1; p <= c.Procs; p++ {
			v := m.Time(task, p, c)
			if !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("model %s: T(task %d, p=%d) = %g, want positive finite", m.Name(), i, p, v)
			}
			row[p-1] = v
		}
	}
	return t, nil
}

// MustTable is NewTable for inputs known to be valid; it panics on error.
func MustTable(g *dag.Graph, m Model, c platform.Cluster) *Table {
	t, err := NewTable(g, m, c)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the name of the underlying model.
func (t *Table) Name() string { return t.name }

// Procs returns the number of processors the table covers.
func (t *Table) Procs() int { return t.procs }

// NumTasks returns the number of tasks the table covers.
func (t *Table) NumTasks() int { return t.tasks }

// Time returns T(v, p). It panics if v or p is out of range, consistent with
// slice indexing: allocation code must clamp p to [1, Procs] beforehand.
//
//schedlint:hotpath
func (t *Table) Time(v dag.TaskID, p int) float64 { return t.times[int(v)*t.procs+p-1] }

// SeedMemo returns the seed memo stored for g, or nil when the slot is empty
// or holds another graph's. The memo costs one allocation per seed, 4·V ints
// for core's default seeds, and is freed with the table.
func (t *Table) SeedMemo(g *dag.Graph) *SeedMemo {
	if m := t.seeds.Load(); m != nil && m.Graph == g {
		return m
	}
	return nil
}

// StoreSeedMemo replaces the seed memo. Concurrent stores for the same graph
// carry equal values, so whichever lands last is correct.
func (t *Table) StoreSeedMemo(m *SeedMemo) { t.seeds.Store(m) }

// Monotone reports whether T(v, p) is non-increasing in p for every task,
// i.e. whether the "monotonous penalty assumption" holds for this table.
func (t *Table) Monotone() bool {
	for v := 0; v < t.tasks; v++ {
		row := t.row(dag.TaskID(v))
		for p := 1; p < len(row); p++ {
			if row[p] > row[p-1] {
				return false
			}
		}
	}
	return true
}

// BestProcs returns, for task v, the processor count in [1, Procs] minimizing
// T(v, p), with ties broken toward fewer processors. Useful for bounding and
// diagnostics under non-monotonic models.
func (t *Table) BestProcs(v dag.TaskID) int {
	row := t.row(v)
	best := 0
	for p := 1; p < len(row); p++ {
		if row[p] < row[best] {
			best = p
		}
	}
	return best + 1
}
