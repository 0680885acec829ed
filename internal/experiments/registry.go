package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
)

// Experiment is one runnable reproduction target.
type Experiment struct {
	Name        string
	Description string
	// Run prints the experiment's tables to w and returns its headline rows
	// (what BENCH_<n>.json records of it; each names the paper quantity or
	// the gate it serves, see EXPERIMENTS.md) and its gate: nil unless its
	// acceptance condition failed.
	Run func(cfg Config, w io.Writer) (benchfmt.Metrics, error)
}

// result is what every driver returns: it knows its own headline rows.
type result interface{ Rows() benchfmt.Metrics }

// gatedResult is a result that also carries the experiment's gate.
type gatedResult interface {
	result
	Gate() error
}

// ungated wraps a driver that reports and has no acceptance condition.
func ungated[R result](run func(Config, io.Writer) R) func(Config, io.Writer) (benchfmt.Metrics, error) {
	return func(cfg Config, w io.Writer) (benchfmt.Metrics, error) { return run(cfg, w).Rows(), nil }
}

// gated wraps a driver whose result carries the experiment's gate.
func gated[R gatedResult](run func(Config, io.Writer) R) func(Config, io.Writer) (benchfmt.Metrics, error) {
	return func(cfg Config, w io.Writer) (benchfmt.Metrics, error) {
		r := run(cfg, w)
		return r.Rows(), r.Gate()
	}
}

// All returns the experiments in figure order.
func All() []Experiment {
	return []Experiment{
		{
			Name:        "fig6",
			Description: "AA cache performance: latency vs throughput, pick quality, WA, CPU/op (§4.1)",
			Run:         ungated(RunFig6),
		},
		{
			Name:        "fig7",
			Description: "Imbalanced aging: per-disk/per-RG write rates under OLTP (§4.2)",
			Run:         ungated(RunFig7),
		},
		{
			Name:        "fig8",
			Description: "SSD AA sizing: erase-block-aligned AAs vs HDD-sized AAs (§4.3)",
			Run:         ungated(RunFig8),
		},
		{
			Name:        "fig9",
			Description: "SMR AA sizing: zone+AZCS-aligned AAs vs HDD-sized AAs (§4.3)",
			Run:         ungated(RunFig9),
		},
		{
			Name:        "fig10",
			Description: "TopAA metafile: first-CP time after mount vs volume size/count (§4.4)",
			Run:         ungated(RunFig10),
		},
		{
			Name:        "crashmatrix",
			Description: "crash recovery: crash at every CP phase × media fault, scrub for silent divergence (§3.4)",
			Run:         gated(RunCrashMatrix),
		},
		{
			Name:        "pipelinecrash",
			Description: "crash recovery in the pipelined CP's overlap window × media fault, scrub for silent divergence",
			Run:         gated(RunPipelineCrashMatrix),
		},
		{
			Name:        "micro",
			Description: "mount and CP-flush microbenchmarks: TopAA-seeded vs walked first-CP mount cost, 8-way flush makespan",
			Run:         ungated(RunMicro),
		},
		{
			Name:        "allocbench",
			Description: "allocator pick path: striped vs shared, modeled contention; striped must win at 8 workers",
			Run:         gated(RunAllocBench),
		},
		{
			Name:        "pipelinebench",
			Description: "pipelined CP: overlap gain over stop-the-world must reach 1.3x with identical final states",
			Run:         gated(RunPipelineBench),
		},
		{
			Name:        "storm",
			Description: "closed-loop control: adversarial aging + snapshot storm, SLO/backlog-driven budget shedding vs static",
			Run:         gated(RunStorm),
		},
		{
			Name:        "ablations",
			Description: "design-choice ablations: HBPS bin width, AA size, write-bias threshold",
			Run:         ungated(RunAblations),
		},
	}
}

// RunAllContext runs exps across the work pool (the drivers share nothing:
// each builds its own Systems from cfg.Seed), buffering each one's output and
// writing the buffers to w in the order given, so the printed report is
// identical at any worker count. Cancelling ctx skips experiments that have
// not started; in-flight ones run to completion (the pool drains) and their
// output is still printed. Returns ctx.Err() when canceled, in which case the
// report is incomplete, and otherwise the rows of every experiment, in the
// order given, with the gate errors of those that failed theirs.
func RunAllContext(ctx context.Context, cfg Config, w io.Writer, exps []Experiment) (benchfmt.Metrics, error) {
	outs := make([]*bytes.Buffer, len(exps))
	rows := make([]benchfmt.Metrics, len(exps))
	gates := make([]error, len(exps))
	err := parallel.ForEachCtx(ctx, cfg.Workers, len(exps), func(i int) {
		e := exps[i]
		buf := &bytes.Buffer{}
		start := time.Now()
		fmt.Fprintf(buf, "### %s — %s (scale %.2f)\n\n", e.Name, e.Description, cfg.Scale)
		rows[i], gates[i] = e.Run(cfg, buf)
		fmt.Fprintf(buf, "[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		outs[i] = buf
	})
	var all benchfmt.Metrics
	for i, buf := range outs {
		if buf != nil {
			w.Write(buf.Bytes())
			all = append(all, rows[i]...)
		}
	}
	if err != nil {
		return nil, err
	}
	return all, errors.Join(gates...)
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, e := range All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("unknown experiment %q (have %v)", name, names)
}
