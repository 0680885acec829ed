// Command waflbench regenerates the paper's evaluation figures.
//
// Each experiment builds the configuration the paper describes, ages it
// with the stated workload, measures per-operation service demands in the
// simulator, and prints the same rows/series the figure reports.
//
// Usage:
//
//	waflbench [-exp <name>|all] [-list] [-scale 1.0] [-seed 42] [-cores 20]
//	          [-parallel N] [-cpuprofile f] [-memprofile f]
//	          [-metrics-addr host:port] [-hold d] [-trace-collapse f.folded]
//	          [-bench-json BENCH_n.json] [-faults <plan-spec>]
//	          [-slo default|<spec>] [-optrace default|rate=N[,slow=D][,cap=N]]
//	          [-control default|<spec>]
//
// -exp names a registry entry (-list prints them), or all of them. The
// figures fig6..fig10, micro and ablations report; crashmatrix,
// pipelinecrash, allocbench, pipelinebench and storm also exit nonzero when
// their gate fails (each result type's Gate method in internal/experiments
// states its condition: no silent divergence after a crash, the striped
// pick path winning at 8 workers, a 1.3x overlap gain with identical final
// states, a closed loop that acts without costing wall time).
//
// -faults runs a single crash-and-recover scenario under a fault-plan spec
// (e.g. "phase=flush,fault=torn,cp=2") instead of an experiment — plans
// naming an overlap phase run the pipelined scenario, whose overlap window
// is boundary 4 (cp=4) — and exits nonzero on silent divergence. See
// internal/faultinject.
//
// -bench-json writes the headline rows of the experiments -exp ran (all by
// default) and the audit's rows to a schema-versioned artifact for
// regression gating with cmd/benchdiff; see internal/benchfmt and the
// metric appendix of EXPERIMENTS.md. It arms the audited sinks on every arm
// (experiments.ArtifactSinks), and writes nothing if a gate or the audit
// fails.
//
// After every run that armed shared sinks, the audit (experiments.Audit)
// holds them to the clean-versus-crash contract and exits nonzero if any
// clause breaks: the watchdogs ran and found nothing, clean arms neither
// warn, page nor actuate, crash arms whose mounts fell back (crash matrix
// cells, the -faults scenario) paged the recovery SLI and kicked a scrub,
// and per-stage latency attribution reconciles with the latency histograms.
//
// -parallel sets the deterministic work-pool width: experiment arms, MVA
// sweep points, CP flushes, and mount walks fan out across N workers, with
// bit-identical results at any N (0 selects min(GOMAXPROCS, 8)).
//
// The observability flags wire every experiment arm into shared sinks:
// -metrics-addr serves live introspection endpoints for the duration of the
// run (":0" picks a free port; the bench self-checks /metrics before
// exiting): /metrics is the Prometheus text view of every arm's last
// published CP snapshot, /debug/timeseries dumps the embedded per-CP
// time-series store as JSON, /debug/picks dumps the allocation-decision
// provenance rings, and /debug/pprof/* is the standard Go profiler. The
// online invariant watchdogs are armed whenever the endpoints are up.
// -hold keeps the endpoints serving after the run finishes (for cmd/wafltop
// or a browser), and -trace-collapse folds the sampled ops' critical paths
// (see -optrace) into collapsed-stack format, one
// "<space>;op.<kind>;<stages> <ns>" line per unique stack
// (flamegraph.pl-compatible), written before any -hold.
//
// -slo arms the per-volume SLO engine on every arm: the spec string
// ("default" for the stock portfolio, or clauses like
// "name=lat,kind=latency,space=vol.*,target=0.99,threshold=20ms,
// page=10@30s/5m,warn=2@2m30s/20m") is evaluated at each CP boundary
// against the embedded time-series store over modeled-clock windows, and
// the final alert totals print after the run. With -metrics-addr the
// /debug/slo endpoint serves the live status document. See internal/obs/slo.
//
// -optrace arms request-scoped op tracing on every arm: 1-in-rate sampled
// reads and writes (plus every op slower than the slow gate) record a span
// tree on the modeled clock — allocator pick provenance, per-stage CP cost
// attribution, device-busy leaves — into bounded per-volume rings. With
// -metrics-addr the /debug/optrace endpoint serves the trace document
// (filterable by ?vol=, ?min_lat=, ?id=, ?limit=). The spec is
// comma-separated key=value ("default" for rate=16,slow=20ms,cap=256); trace
// IDs are derived from -seed, so the sampled set and every ID are identical
// at any -parallel width. -trace-collapse arms the default spec when -optrace
// is absent. See internal/obs/optrace.
//
// -control arms the closed-loop controller on every arm: the policy string
// ("default" for the stock portfolio, or clauses like
// "name=shed,signal=slo.latency.vol.*.state,op=>,value=0.5,hold=2,
// action=delayed_budget,step=-50%,min=256") is evaluated once per CP
// boundary on the modeled clock, reading its signals from the embedded
// time-series store and actuating bounded tunables (delayed-free budget,
// alloc batch, fragscan stride, scrub kicks) through the system's actuator.
// Every decision — fired, clamped, rejected, or suppressed — lands in a
// bounded provenance ring with the signal value, canonical policy clause,
// old/new knob values, and the worst-op exemplar trace ID when -optrace is
// armed. The stock portfolio's signals are the SLO engine's state series,
// so -control arms the default SLO portfolio when -slo is absent. Final
// decision totals print after the run; with -metrics-addr the
// /debug/control endpoint serves the live status document. See
// internal/control.
//
// Absolute numbers are simulation-scale; the comparisons (who wins, by what
// factor, where curves sit) are what reproduce the paper. See EXPERIMENTS.md
// for paper-versus-measured tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	hpprof "net/http/pprof"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"waflfs/internal/benchfmt"
	"waflfs/internal/control"
	"waflfs/internal/experiments"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// gitRev returns the short HEAD revision for artifact provenance, or
// "unknown" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// options is waflbench's flag surface: one field per flag.
type options struct {
	exp           string
	scale         float64
	seed          int64
	cores         int
	list          bool
	workers       int
	cpuprofile    string
	memprofile    string
	metricsAddr   string
	hold          time.Duration
	traceCollapse string
	benchJSON     string
	faults        string
	sloSpec       string
	optraceSpec   string
	controlSpec   string
}

// newFlagSet declares every waflbench flag over o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("waflbench", flag.ExitOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: a name -list prints, or all")
	fs.Float64Var(&o.scale, "scale", 1.0, "working-set scale factor (smaller = faster)")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.IntVar(&o.cores, "cores", 20, "storage-server CPU cores for the queueing model")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.IntVar(&o.workers, "parallel", 1,
		"work-pool width for experiments, CP flushes, and mount walks (0 = min(GOMAXPROCS,8), 1 = serial)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live endpoints (/metrics, /debug/timeseries, /debug/picks, /debug/pprof) on this address during the run (\":0\" picks a free port)")
	fs.DurationVar(&o.hold, "hold", 0,
		"keep the live endpoints serving for this long after the run finishes (requires -metrics-addr)")
	fs.StringVar(&o.traceCollapse, "trace-collapse", "",
		"fold the sampled ops' critical paths into collapsed-stack format (space;op.kind;stages ns) and write them to this file (flamegraph.pl-compatible); arms -optrace default when -optrace is absent")
	fs.StringVar(&o.benchJSON, "bench-json", "",
		"write the rows of the experiments run and of the audit to this schema-versioned benchmark artifact (BENCH_<n>.json); arms the audited sinks")
	fs.StringVar(&o.faults, "faults", "",
		"run one crash-and-recover scenario under this fault-plan spec (like 'phase=flush,fault=torn,cp=2') instead of an experiment, and exit 1 on silent divergence")
	fs.StringVar(&o.sloSpec, "slo", "",
		"arm the SLO engine on every arm with this spec string ('default' for the stock portfolio; see internal/obs/slo)")
	fs.StringVar(&o.optraceSpec, "optrace", "",
		"arm request-scoped op tracing on every arm with this spec ('default' or 'rate=N[,slow=D][,cap=N]'; see internal/obs/optrace)")
	fs.StringVar(&o.controlSpec, "control", "",
		"arm the closed-loop controller on every arm with this policy string ('default' for the stock portfolio; see internal/control)")
	return fs
}

// check cross-validates the parsed flags; expSet reports whether the command
// line gave -exp. Any error is a usage error.
func (o *options) check(expSet bool) error {
	if o.hold > 0 && o.metricsAddr == "" {
		return errors.New("-hold requires -metrics-addr")
	}
	if o.faults != "" && expSet {
		return errors.New("-exp and -faults each select what runs: give one")
	}
	if o.faults != "" && o.benchJSON != "" {
		return errors.New("-bench-json records the rows of the experiments run, and -faults runs none")
	}
	return nil
}

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.Parse(os.Args[1:])
	expSet := false
	fs.Visit(func(f *flag.Flag) { expSet = expSet || f.Name == "exp" })
	if err := o.check(expSet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(o))
}

// run is waflbench after flag parsing; it returns the exit code. Every exit
// goes through its return, so the deferred profile writes run on a failing
// run too — the one most worth profiling.
func run(o options) int {
	if o.list {
		for _, e := range experiments.All() {
			fmt.Printf("%-13s %s\n", e.Name, e.Description)
		}
		return 0
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if o.memprofile == "" {
			return
		}
		f, err := os.Create(o.memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // profile live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cfg := experiments.DefaultConfig()
	cfg.Scale = o.scale
	cfg.Seed = o.seed
	cfg.Cores = o.cores
	cfg.Workers = o.workers

	// Observability sinks. One export registry and one of each per-CP sink
	// is shared by every experiment arm; each arm registers its metrics under
	// its own name prefix so the streams stay disjoint. The zero sink arms
	// nothing, and cfg.Obs stays nil.
	sink := &wafl.ObsOptions{}
	if o.benchJSON != "" || o.metricsAddr != "" || o.traceCollapse != "" || o.sloSpec != "" || o.optraceSpec != "" || o.controlSpec != "" {
		if o.benchJSON != "" {
			sink = experiments.ArtifactSinks(o.seed)
		} else {
			sink.Export = obs.NewRegistry()
		}
		if sink.TSDB == nil && (o.metricsAddr != "" || o.sloSpec != "" || o.controlSpec != "") {
			// The SLO engine reads its SLI windows out of the time-series
			// store, so -slo arms the tsdb even without live serving — and the
			// controller reads its signals the same way; the latency SLIs
			// additionally need the cumulative histogram-bucket series.
			tsCfg := tsdb.DefaultConfig()
			if o.sloSpec != "" || o.controlSpec != "" {
				tsCfg.HistBuckets = tsdb.SuffixFilter(".lat_ns")
			}
			sink.TSDB = tsdb.NewStore(tsCfg)
		}
		if o.metricsAddr != "" {
			// Live serving: arms publish their registry snapshots at CP
			// boundaries (tear-free under concurrent scrapes), the tsdb and
			// pick rings are mutex-guarded, and the invariant watchdogs run
			// whenever someone is watching.
			sink.Live = obs.NewLatest()
			sink.Picks = picks.NewRecorder(picks.DefaultConfig())
			sink.Watchdogs = true
		}
		if o.sloSpec != "" {
			specs, err := slo.ParseSpecs(o.sloSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-slo: %v\n", err)
				return 2
			}
			sink.SLO = slo.NewSet(specs)
		}
		if o.controlSpec != "" {
			pols, err := control.ParsePolicies(o.controlSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-control: %v\n", err)
				return 2
			}
			sink.Control = control.NewSet(pols)
			if sink.SLO == nil {
				// The stock portfolio watches the SLO engine's state series,
				// so a controller without -slo would see no signals at all:
				// arm the default SLO portfolio alongside it.
				sink.SLO = slo.NewSet(slo.DefaultSpecs())
			}
		}
		if o.optraceSpec != "" {
			otCfg, err := optrace.ParseConfig(o.optraceSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-optrace: %v\n", err)
				return 2
			}
			otCfg.Seed = o.seed
			sink.OpTrace = optrace.NewRecorder(otCfg)
		}
		if o.traceCollapse != "" && sink.OpTrace == nil {
			// The folded stacks are the op traces' critical paths, so a
			// -trace-collapse without -optrace arms the default sampling.
			otCfg := optrace.DefaultConfig()
			otCfg.Seed = o.seed
			sink.OpTrace = optrace.NewRecorder(otCfg)
		}
		cfg.Obs = sink
	}

	var metricsURL string
	var srv *http.Server
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		mux := http.NewServeMux()
		// Before the first CP publishes, serve a placeholder rather than
		// reading the export registry's closures while arms mutate them.
		liveHandler := obs.LatestHandler(sink.Live)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			if sink.Live.NumSystems() == 0 {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, "# no consistency points published yet")
				return
			}
			liveHandler.ServeHTTP(w, r)
		})
		mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = sink.TSDB.WriteJSON(w)
		})
		mux.HandleFunc("/debug/picks", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = sink.Picks.WriteJSON(w)
		})
		mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = sink.SLO.WriteJSON(w) // nil-safe: empty document without -slo
		})
		mux.HandleFunc("/debug/control", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = sink.Control.WriteJSON(w) // nil-safe: empty document without -control
		})
		mux.HandleFunc("/debug/optrace", func(w http.ResponseWriter, r *http.Request) {
			f, err := optraceFilter(r.URL.Query())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = sink.OpTrace.WriteJSON(w, f) // nil-safe: empty document without -optrace
		})
		mux.HandleFunc("/debug/pprof/", hpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", hpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", hpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", hpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", hpprof.Trace)
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)
		metricsURL = fmt.Sprintf("http://%s/metrics", ln.Addr())
		fmt.Printf("serving live endpoints at http://%s (/metrics /debug/timeseries /debug/picks /debug/slo /debug/control /debug/optrace /debug/pprof)\n\n", ln.Addr())
	}

	start := time.Now()
	var rows benchfmt.Metrics
	var err error
	if o.faults != "" {
		err = runFaultPlan(cfg, o.faults)
	} else {
		exps := experiments.All()
		if o.exp != "all" {
			e, lerr := experiments.Lookup(o.exp)
			if lerr != nil {
				fmt.Fprintln(os.Stderr, lerr)
				return 2
			}
			exps = []experiments.Experiment{e}
		}
		rows, err = experiments.RunAllContext(context.Background(), cfg, os.Stdout, exps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if sink.SLO != nil {
		printSLOSummary(sink.SLO)
	}
	if sink.Control != nil {
		printControlSummary(sink.Control)
	}
	if sink.OpTrace != nil {
		printOptraceSummary(sink.OpTrace)
	}
	if o.traceCollapse != "" {
		if err := writeCollapsed(o.traceCollapse, sink.OpTrace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if o.hold > 0 {
		fmt.Printf("holding live endpoints for %v (interrupt to stop early)\n", o.hold)
		time.Sleep(o.hold)
	}

	if srv != nil {
		if err := checkMetrics(metricsURL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		srv.Close()
	}

	audit, err := experiments.Audit(cfg.Obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if o.benchJSON != "" {
		if err := writeArtifact(o.benchJSON, cfg, append(rows, audit...), time.Since(start)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// writeArtifact handles -bench-json: the run's rows, with provenance, to path.
func writeArtifact(path string, cfg experiments.Config, rows benchfmt.Metrics, took time.Duration) error {
	art := benchfmt.Artifact{
		Schema:  benchfmt.SchemaVersion,
		Name:    strings.TrimSuffix(filepath.Base(path), ".json"),
		GitRev:  gitRev(),
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Workers: cfg.Workers,
		Metrics: rows,
	}
	if err := benchfmt.WriteFile(path, art); err != nil {
		return err
	}
	fmt.Printf("artifact: %d metrics to %s (rev %s, scale %.2f, %v)\n",
		len(art.Metrics), path, art.GitRev, art.Scale, took.Round(time.Millisecond))
	return nil
}

// printControlSummary renders the run's final control posture: portfolio-wide
// decision totals, then every actuation record (the decision provenance), so a
// scripted run surfaces what the controller did without anyone curling the
// live endpoint. All-idle portfolios print just the totals line.
func printControlSummary(set *control.Set) {
	tot := set.Totals()
	fmt.Printf("control: %d systems, %d instances, %d evaluations — %d actuations, %d suppressed (%d transitions; active: %d armed, %d acted)\n",
		tot.Systems, tot.Instances, tot.Evaluations, tot.Actuations, tot.Suppressed,
		tot.Transitions, tot.ActiveArmed, tot.ActiveActed)
	for _, sys := range set.Status() {
		for _, r := range sys.Records {
			verdict := "suppressed:" + r.Reason
			if r.Fired {
				verdict = fmt.Sprintf("%s %.0f -> %.0f", r.Knob, r.Old, r.New)
			}
			fmt.Printf("  %s/%s at cp %d: signal %s = %.3f — %s\n",
				sys.System, r.Instance, r.CP, r.Signal, r.Value, verdict)
		}
	}
}

// printSLOSummary renders the run's final SLO posture: portfolio-wide alert
// totals, then one line per instance that ever left (or is still out of) the
// ok state. All-green portfolios print just the totals line.
func printSLOSummary(set *slo.Set) {
	tot := set.Totals()
	fmt.Printf("slo: %d systems, %d instances, %d evaluations — %d warns, %d pages (%d transitions; active: %d warn, %d page)\n",
		tot.Systems, tot.Instances, tot.Evaluations, tot.Warns, tot.Pages,
		tot.Transitions, tot.ActiveWarns, tot.ActivePages)
	for _, sys := range set.Status() {
		for _, in := range sys.Instances {
			if in.State == "ok" {
				continue
			}
			fmt.Printf("  %s/%s [%s]: state=%s burn_fast=%.2f burn_slow=%.2f budget_used=%.3f\n",
				sys.System, in.Name, in.Kind, in.State,
				in.BurnFast, in.BurnSlow, in.BudgetUsed)
		}
		for _, tr := range sys.Transitions {
			fmt.Printf("  %s/%s: %s -> %s at cp %d\n",
				sys.System, tr.Instance, tr.From, tr.To, tr.CP)
		}
	}
}

// printOptraceSummary renders the run's sampling posture plus each volume's
// worst sampled op, so a scripted run surfaces its exemplar trace IDs
// without anyone curling the live endpoint.
func printOptraceSummary(rec *optrace.Recorder) {
	fmt.Printf("optrace: %d ops sampled (%d slow-gated, %d evicted) across %d volumes [%s]\n",
		rec.TotalSampled(), rec.TotalSlowSampled(), rec.TotalDropped(),
		len(rec.Spaces()), rec.Config())
	for _, sp := range rec.Spaces() {
		if id, lat, ok := rec.Exemplar(sp); ok {
			fmt.Printf("  %s: worst sampled op %s at %v\n",
				sp, optrace.FormatTraceID(id), time.Duration(lat))
		}
	}
}

// optraceFilter translates /debug/optrace query parameters into a trace
// filter: ?vol= substring-matches the volume space, ?min_lat= is a
// time.ParseDuration floor, ?id= fetches one trace by ID (hex or decimal),
// ?limit= keeps the newest N per space.
func optraceFilter(q url.Values) (optrace.Filter, error) {
	var f optrace.Filter
	f.Space = q.Get("vol")
	if v := q.Get("min_lat"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return f, fmt.Errorf("min_lat %q: want a non-negative duration", v)
		}
		f.MinLatNS = uint64(d)
	}
	if v := q.Get("id"); v != "" {
		id, err := optrace.ParseTraceID(v)
		if err != nil {
			return f, fmt.Errorf("id %q: %v", v, err)
		}
		f.ID = id
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("limit %q: want a non-negative integer", v)
		}
		f.Limit = n
	}
	return f, nil
}

// runFaultPlan handles -faults: one crash-and-recover scenario under the
// plan spec. A silently-divergent cache is a hard failure.
func runFaultPlan(cfg experiments.Config, spec string) error {
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		return err
	}
	if plan.Seed == 0 {
		plan.Seed = cfg.Seed
	}
	// Overlap phases only occur with pipelined CPs; route their plans to the
	// pipelined scenario (whose overlap window is boundary 4).
	scenario, name := experiments.RunFaultScenario, "faults"
	for _, p := range faultinject.OverlapPhases() {
		if plan.CrashPhase == p {
			scenario, name = experiments.RunPipelineFaultScenario, "faults.pipeline"
		}
	}
	cell := scenario(cfg, plan, name)
	fmt.Printf("fault scenario: phase=%q fault=%s crashed=%v\n", cell.Phase, cell.Fault, cell.Crashed)
	if cell.Damage != "" {
		fmt.Printf("  media damage: %s\n", cell.Damage)
	}
	fmt.Printf("  remount: %d spaces — %d clean, %d reconstructed, %d fallbacks (stale %d, torn %d, damaged %d, missing %d)\n",
		cell.Spaces, cell.CleanLoads, cell.Reconstructed, cell.Fallbacks,
		cell.Stale, cell.Torn, cell.Damaged, cell.Missing)
	if cell.Divergent > 0 {
		return fmt.Errorf("scrub: silent divergence in %d spaces (first: %s)", cell.Divergent, cell.FirstDivergence)
	}
	fmt.Println("  scrub: clean — every cache agrees with the bitmap metafiles")
	return nil
}

// writeCollapsed handles -trace-collapse: the sampled ops' critical paths,
// folded, to path.
func writeCollapsed(path string, rec *optrace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	stacks, err := rec.WriteCollapsed(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("trace-collapse: %d stacks to %s\n", stacks, path)
	return nil
}

// checkMetrics self-checks the live metrics endpoint, so scripted runs need
// no external HTTP client.
func checkMetrics(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("metrics self-check: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("metrics self-check: %w", err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		return fmt.Errorf("metrics self-check: status %d, %d bytes", resp.StatusCode, len(body))
	}
	fmt.Printf("metrics self-check ok: %d bytes from %s\n", len(body), url)
	return nil
}
