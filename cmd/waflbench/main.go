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
//	          [-metrics-addr host:port] [-hold d] [-csv-out f.csv]
//	          [-trace-out f.jsonl] [-trace-collapse f.folded]
//	          [-bench-json BENCH_n.json] [-faults <plan-spec>]
//	          [-slo default|<spec>] [-slo-expect none|alerts]
//	          [-optrace default|rate=N[,slow=D][,cap=N]]
//	          [-control default|<spec>] [-control-expect none|actuations]
//
// -exp, -faults and -bench-json each select what runs; give at most one.
//
// -exp names a registry entry (-list prints them): the figures fig6..fig10,
// storm and ablations report, and four entries carry their own gate and
// exit nonzero when it fails. crashmatrix sweeps a crash at every CP phase ×
// media fault kind and fails if any recovered cache silently disagrees with
// the bitmap metafiles; pipelinecrash does the same over the pipelined CP's
// overlap window (overlap_alloc / overlap_flush); allocbench runs the
// striped-vs-shared allocator pick-path microbenchmark and fails unless the
// striped arm's modeled pick wall-clock at 8 workers beats the shared
// arm's; pipelinebench runs the same sustained-write workload stop-the-world
// and pipelined and fails if the modeled overlap gain at 8 workers is below
// 1.3x or the two arms' final states diverge. Each gate is the experiment's
// own (internal/experiments), so -bench-json fails on the same conditions.
//
// -faults runs a single crash-and-recover scenario under a fault-plan spec
// (e.g. "phase=flush,fault=torn,cp=2") instead of an experiment — plans
// naming an overlap phase run the pipelined scenario, whose overlap window
// is boundary 4 (cp=4) — and exits nonzero on silent divergence. See
// internal/faultinject.
//
// -bench-json runs the canonical fig6–fig10 + microbench suite and writes a
// schema-versioned benchmark artifact (headline metrics, fragscan
// allocation-quality summaries, modeled clocks, provenance) for regression
// gating with cmd/benchdiff; see internal/benchfmt. The pipelined-CP
// (cp.pipeline.*, crash.pipeline.*) and closed-loop control (control.*)
// families are always part of it.
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
// or a browser), -csv-out appends one row per metric per consistency point
// per arm, -trace-out writes the canonical CP-phase / allocator event
// sequence as JSON Lines, and -trace-collapse folds the same timed spans
// into collapsed-stack format (one "sys;phase;name <count>" line per unique
// stack, flamegraph.pl-compatible).
//
// -slo arms the per-volume SLO engine on every arm: the spec string
// ("default" for the stock portfolio, or clauses like
// "name=lat,kind=latency,space=vol.*,target=0.99,threshold=20ms,
// page=10@30s/5m,warn=2@2m30s/20m") is evaluated at each CP boundary
// against the embedded time-series store over modeled-clock windows, and
// the final alert totals print after the run. With -metrics-addr the
// /debug/slo endpoint serves the live status document. -slo-expect turns
// the outcome into an exit code: "none" fails the run if any warn or page
// fired (clean-figure smoke), "alerts" fails unless at least one page
// fired (crash-matrix smoke). See internal/obs/slo.
//
// -optrace arms request-scoped op tracing on every arm: 1-in-rate sampled
// reads and writes (plus every op slower than the slow gate) record a span
// tree on the modeled clock — allocator pick provenance, per-stage CP cost
// attribution, device-busy leaves — into bounded per-volume rings. With
// -metrics-addr the /debug/optrace endpoint serves the trace document
// (filterable by ?vol=, ?min_lat=, ?id=, ?limit=); with -trace-collapse the
// sampled ops' critical paths fold into the same collapsed-stack output as
// the CP-phase spans. The spec is comma-separated key=value ("default" for
// rate=16,slow=20ms,cap=256); trace IDs are derived from -seed, so the
// sampled set and every ID are identical at any -parallel width. See
// internal/obs/optrace.
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
// /debug/control endpoint serves the live status document. -control-expect
// turns the outcome into an exit code: "none" fails the run if anything
// actuated (clean-figure smoke), "actuations" fails unless at least one
// actuation fired (crash-matrix smoke). See internal/control.
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
	"waflfs/internal/stats"
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
	csvOut        string
	traceOut      string
	traceCollapse string
	benchJSON     string
	faults        string
	sloSpec       string
	sloExpect     string
	optraceSpec   string
	controlSpec   string
	controlExpect string
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
	fs.StringVar(&o.csvOut, "csv-out", "", "write per-CP metric rows to this CSV file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the CP-phase/allocator trace to this JSON Lines file")
	fs.StringVar(&o.traceCollapse, "trace-collapse", "",
		"fold the CP-phase trace spans into collapsed-stack format (sys;phase;name count) and write them to this file (flamegraph.pl-compatible)")
	fs.StringVar(&o.benchJSON, "bench-json", "",
		"run the canonical fig6-fig10 + microbench suite and write a schema-versioned benchmark artifact (BENCH_<n>.json) to this file instead of an experiment")
	fs.StringVar(&o.faults, "faults", "",
		"run one crash-and-recover scenario under this fault-plan spec (like 'phase=flush,fault=torn,cp=2') instead of an experiment, and exit 1 on silent divergence")
	fs.StringVar(&o.sloSpec, "slo", "",
		"arm the SLO engine on every arm with this spec string ('default' for the stock portfolio; see internal/obs/slo)")
	fs.StringVar(&o.sloExpect, "slo-expect", "",
		"exit 1 unless the run's SLO alert totals match: 'none' (no warns or pages) or 'alerts' (at least one page); requires -slo")
	fs.StringVar(&o.optraceSpec, "optrace", "",
		"arm request-scoped op tracing on every arm with this spec ('default' or 'rate=N[,slow=D][,cap=N]'; see internal/obs/optrace)")
	fs.StringVar(&o.controlSpec, "control", "",
		"arm the closed-loop controller on every arm with this policy string ('default' for the stock portfolio; see internal/control)")
	fs.StringVar(&o.controlExpect, "control-expect", "",
		"exit 1 unless the run's actuation totals match: 'none' (nothing actuated) or 'actuations' (at least one fired); requires -control")
	return fs
}

// check cross-validates the parsed flags; expSet reports whether the command
// line gave -exp (its default selects nothing). Any error is a usage error.
func (o *options) check(expSet bool) error {
	switch o.sloExpect {
	case "", "none", "alerts":
	default:
		return fmt.Errorf("-slo-expect %q: want 'none' or 'alerts'", o.sloExpect)
	}
	if o.sloExpect != "" && o.sloSpec == "" {
		return errors.New("-slo-expect requires -slo")
	}
	switch o.controlExpect {
	case "", "none", "actuations":
	default:
		return fmt.Errorf("-control-expect %q: want 'none' or 'actuations'", o.controlExpect)
	}
	if o.controlExpect != "" && o.controlSpec == "" {
		return errors.New("-control-expect requires -control")
	}
	if o.hold > 0 && o.metricsAddr == "" {
		return errors.New("-hold requires -metrics-addr")
	}
	modes := 0
	for _, on := range []bool{expSet, o.faults != "", o.benchJSON != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-exp, -faults and -bench-json each select what runs: give one")
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

	if o.list {
		for _, e := range experiments.All() {
			fmt.Printf("%-13s %s\n", e.Name, e.Description)
		}
		return
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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

	// Observability sinks. One export registry / tracer / CSV stream is
	// shared by every experiment arm; each arm registers its metrics under
	// its own name prefix so the streams stay disjoint.
	var (
		export  *obs.Registry
		tracer  *obs.Tracer
		csvFile *os.File
		csvRec  *obs.CSVRecorder
		live    *obs.Latest
		tsStore *tsdb.Store
		pickRec *picks.Recorder
		sloSet  *slo.Set
		otRec   *optrace.Recorder
		ctlSet  *control.Set
	)
	if o.metricsAddr != "" || o.csvOut != "" || o.traceOut != "" || o.traceCollapse != "" || o.sloSpec != "" || o.optraceSpec != "" || o.controlSpec != "" {
		export = obs.NewRegistry()
		sink := &wafl.ObsOptions{Export: export}
		if o.metricsAddr != "" || o.sloSpec != "" || o.controlSpec != "" {
			// The SLO engine reads its SLI windows out of the time-series
			// store, so -slo arms the tsdb even without live serving — and the
			// controller reads its signals the same way; the latency SLIs
			// additionally need the cumulative histogram-bucket series.
			tsCfg := tsdb.DefaultConfig()
			if o.sloSpec != "" || o.controlSpec != "" {
				tsCfg.HistBuckets = tsdb.SuffixFilter(".lat_ns")
			}
			tsStore = tsdb.NewStore(tsCfg)
			sink.TSDB = tsStore
		}
		if o.metricsAddr != "" {
			// Live serving: arms publish their registry snapshots at CP
			// boundaries (tear-free under concurrent scrapes), the tsdb and
			// pick rings are mutex-guarded, and the invariant watchdogs run
			// whenever someone is watching.
			live = obs.NewLatest()
			pickRec = picks.NewRecorder(picks.DefaultConfig())
			sink.Live = live
			sink.Picks = pickRec
			sink.Watchdogs = true
		}
		if o.sloSpec != "" {
			specs, err := slo.ParseSpecs(o.sloSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-slo: %v\n", err)
				os.Exit(2)
			}
			sloSet = slo.NewSet(specs)
			sink.SLO = sloSet
		}
		if o.controlSpec != "" {
			pols, err := control.ParsePolicies(o.controlSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-control: %v\n", err)
				os.Exit(2)
			}
			ctlSet = control.NewSet(pols)
			sink.Control = ctlSet
			if sink.SLO == nil {
				// The stock portfolio watches the SLO engine's state series,
				// so a controller without -slo would see no signals at all:
				// arm the default SLO portfolio alongside it.
				sloSet = slo.NewSet(slo.DefaultSpecs())
				sink.SLO = sloSet
			}
		}
		if o.optraceSpec != "" {
			otCfg, err := optrace.ParseConfig(o.optraceSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-optrace: %v\n", err)
				os.Exit(2)
			}
			otCfg.Seed = o.seed
			otRec = optrace.NewRecorder(otCfg)
			sink.OpTrace = otRec
		}
		if o.traceOut != "" || o.traceCollapse != "" {
			tracer = obs.NewTracer()
			sink.Tracer = tracer
		}
		if o.csvOut != "" {
			f, err := os.Create(o.csvOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			csvFile = f
			csvRec = obs.NewCSVRecorder(f)
			sink.CSV = csvRec
		}
		cfg.Obs = sink
	}

	var metricsURL string
	var srv *http.Server
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		// Before the first CP publishes, serve a placeholder rather than
		// reading the export registry's closures while arms mutate them.
		liveHandler := obs.LatestHandler(live)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			if live.NumSystems() == 0 {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, "# no consistency points published yet")
				return
			}
			liveHandler.ServeHTTP(w, r)
		})
		mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tsStore.WriteJSON(w)
		})
		mux.HandleFunc("/debug/picks", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = pickRec.WriteJSON(w)
		})
		mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = sloSet.WriteJSON(w) // nil-safe: empty document without -slo
		})
		mux.HandleFunc("/debug/control", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = ctlSet.WriteJSON(w) // nil-safe: empty document without -control
		})
		mux.HandleFunc("/debug/optrace", func(w http.ResponseWriter, r *http.Request) {
			f, err := optraceFilter(r.URL.Query())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = otRec.WriteJSON(w, f) // nil-safe: empty document without -optrace
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

	var err error
	switch {
	case o.faults != "":
		err = runFaultPlan(cfg, o.faults)
	case o.benchJSON != "":
		err = writeArtifact(cfg, o.benchJSON)
	case o.exp == "all":
		err = experiments.RunAllContext(context.Background(), cfg, os.Stdout)
	default:
		e, lerr := experiments.Lookup(o.exp)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, lerr)
			os.Exit(2)
		}
		fmt.Printf("### %s — %s (scale %.2f)\n\n", e.Name, e.Description, cfg.Scale)
		start := time.Now()
		err = e.Run(cfg, os.Stdout)
		fmt.Printf("[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if sloSet != nil {
		printSLOSummary(sloSet)
	}
	if ctlSet != nil {
		printControlSummary(ctlSet)
	}
	if otRec != nil {
		printOptraceSummary(otRec)
	}

	if o.hold > 0 {
		fmt.Printf("holding live endpoints for %v (interrupt to stop early)\n", o.hold)
		time.Sleep(o.hold)
	}

	if err := finishObs(metricsURL, srv, tracer, otRec, o.traceOut, o.traceCollapse, csvRec, csvFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if err := checkSLOExpect(o.sloExpect, sloSet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkControlExpect(o.controlExpect, ctlSet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeArtifact handles -bench-json: collect the canonical suite and write
// the artifact to path.
func writeArtifact(cfg experiments.Config, path string) error {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	start := time.Now()
	art, err := experiments.CollectArtifact(cfg, name, gitRev(), os.Stdout)
	if err != nil {
		return err
	}
	if err := benchfmt.WriteFile(path, art); err != nil {
		return err
	}
	fmt.Printf("artifact: %d metrics to %s (rev %s, scale %.2f, %v)\n",
		len(art.Metrics), path, art.GitRev, art.Scale, time.Since(start).Round(time.Millisecond))
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

// checkControlExpect turns the portfolio's final decision totals into an exit
// status: "none" is the clean-figure contract (the stock portfolio must not
// touch a healthy system), "actuations" the crash-smoke contract (the
// recovery clause must have fired somewhere).
func checkControlExpect(expect string, set *control.Set) error {
	if expect == "" {
		return nil
	}
	tot := set.Totals()
	switch expect {
	case "none":
		if tot.Actuations != 0 || tot.Suppressed != 0 {
			var sb strings.Builder
			_ = set.WriteJSON(&sb)
			return fmt.Errorf("control-expect none: %d actuations, %d suppressed decisions\n%s",
				tot.Actuations, tot.Suppressed, sb.String())
		}
	case "actuations":
		if tot.Actuations == 0 {
			return fmt.Errorf("control-expect actuations: nothing actuated (%d evaluations, %d suppressed)",
				tot.Evaluations, tot.Suppressed)
		}
	}
	return nil
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

// checkSLOExpect turns the portfolio's final alert totals into an exit
// status: "none" is the clean-figure contract (no warn or page may have
// fired anywhere), "alerts" the crash-smoke contract (at least one page).
func checkSLOExpect(expect string, set *slo.Set) error {
	if expect == "" {
		return nil
	}
	tot := set.Totals()
	switch expect {
	case "none":
		if tot.Pages != 0 || tot.Warns != 0 {
			var sb strings.Builder
			_ = set.WriteJSON(&sb)
			return fmt.Errorf("slo-expect none: %d pages, %d warns fired\n%s", tot.Pages, tot.Warns, sb.String())
		}
	case "alerts":
		if tot.Pages == 0 {
			return fmt.Errorf("slo-expect alerts: no SLO page fired (%d evaluations, %d warns)", tot.Evaluations, tot.Warns)
		}
	}
	return nil
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

// finishObs drains the observability sinks after the experiments finish:
// it self-checks the metrics endpoint (so scripted runs need no external
// HTTP client), flushes the trace file with a phase-duration digest, and
// closes the CSV stream. Any failure is reported as a run failure.
func finishObs(metricsURL string, srv *http.Server, tracer *obs.Tracer, otRec *optrace.Recorder,
	traceOut, traceCollapse string, csvRec *obs.CSVRecorder, csvFile *os.File) error {
	if srv != nil {
		resp, err := http.Get(metricsURL)
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
		fmt.Printf("metrics self-check ok: %d bytes from %s\n", len(body), metricsURL)
		srv.Close()
	}
	if tracer != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		evs := tracer.Events()
		durs := make([]float64, 0, len(evs))
		for _, ev := range evs {
			if ev.Dur > 0 {
				durs = append(durs, float64(ev.Dur))
			}
		}
		sum := stats.Summarize(durs)
		fmt.Printf("trace: %d events to %s (timed spans: %d, p50 %v, p95 %v)\n",
			len(evs), traceOut, sum.N(),
			time.Duration(sum.Percentile(50)).Round(time.Microsecond),
			time.Duration(sum.Percentile(95)).Round(time.Microsecond))
	}
	if (tracer != nil || otRec != nil) && traceCollapse != "" {
		f, err := os.Create(traceCollapse)
		if err != nil {
			return err
		}
		// The CP-phase spans and the sampled ops' critical paths fold into
		// one collapsed-stack file; the op stacks are rooted at op.read /
		// op.write so flamegraphs keep the two families apart.
		var evs []obs.Event
		if tracer != nil {
			evs = tracer.Events()
		}
		evs = append(evs, otRec.CollapsedEvents()...)
		stacks, err := obs.WriteCollapsed(f, evs)
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace-collapse: %d stacks to %s\n", stacks, traceCollapse)
	}
	if csvRec != nil {
		if err := csvRec.Flush(); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		if err := csvFile.Close(); err != nil {
			return err
		}
		fmt.Printf("csv: %d rows\n", csvRec.Rows())
	}
	return nil
}
