package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"waflfs/internal/experiments"
	"waflfs/internal/wafl"
)

// The flag cross-checks, one row per rule: a combination that cannot do what
// it says is a usage error up front, not a flag that is silently ignored.
func TestFlagCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		o      options
		expSet bool
		want   string // substring of the error, "" when the flags are fine
	}{
		{name: "defaults"},
		{name: "hold with address", o: options{hold: time.Second, metricsAddr: ":0"}},
		{name: "hold alone", o: options{hold: time.Second}, want: "-hold requires -metrics-addr"},
		{name: "one mode", o: options{faults: "phase=flush"}},
		{name: "artifact of one experiment", o: options{exp: "fig9", benchJSON: "B.json"}, expSet: true},
		{name: "exp and faults", o: options{exp: "fig9", faults: "phase=flush"}, expSet: true, want: "give one"},
		{name: "faults and artifact", o: options{faults: "phase=flush", benchJSON: "B.json"}, want: "-faults runs none"},
		{name: "negative width", o: options{workers: -3}, want: "-parallel must be 0"},
	} {
		err := tc.o.check(tc.expSet)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// The option surface, pinned: every independently settable value of the
// three configuration structs and every waflbench flag. Adding one fails
// here until the list — and the Options table in DESIGN.md §17, which names
// the two callers or workloads that give the new option different values —
// gains a row.
func TestOptionSurface(t *testing.T) {
	fields := func(v any) []string {
		var names []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			names = append(names, f.Name)
		}
		return names
	}
	var flags []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { flags = append(flags, f.Name) })

	for _, tc := range []struct {
		surface   string
		got, want []string
	}{
		{"wafl.Tunables", fields(wafl.Tunables{}), []string{
			"AggregateCacheEnabled", "VolCacheEnabled", "MinAAScoreFraction",
			"DelayedVirtFrees", "DelayedFreeBudgetPerCP", "FlashPool", "TrimOnFree",
			"CPEveryOps", "Workers", "AllocShards", "AllocBatch", "Pipeline", "Obs", "Faults",
		}},
		{"wafl.ObsOptions", fields(wafl.ObsOptions{}), []string{
			"Name", "Export", "Frag", "FragEvery", "TSDB", "Picks",
			"Live", "Watchdogs", "OpTrace", "SLO", "Control",
		}},
		{"experiments.Config", fields(experiments.Config{}), []string{
			"Scale", "Seed", "Cores", "Think", "Clients", "DeviceParallel", "Workers", "Obs",
		}},
		{"waflbench flags", flags, []string{ // VisitAll walks in name order
			"bench-json", "control", "cores", "cpuprofile",
			"exp", "faults", "hold", "list", "memprofile", "metrics-addr", "optrace",
			"parallel", "scale", "seed", "slo", "trace-collapse",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s has %d options %v,\nthe pinned surface has %d %v",
				tc.surface, len(tc.got), tc.got, len(tc.want), tc.want)
		}
	}
}

// parse builds the options a command line gives, defaults included.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// A failing run still writes both profiles: every exit goes through run's
// return, so the deferred profile writes are not skipped.
func TestFailingRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code := run(parse(t, "-exp", "nosuch", "-cpuprofile", cpu, "-memprofile", mem)); code != 2 {
		t.Fatalf("run with an unknown experiment = %d, want 2", code)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", f, err)
		}
	}
}

// -trace-collapse alone arms op tracing: the folded stacks are the sampled
// ops' critical paths, so without -optrace the file is still non-empty.
func TestTraceCollapseArmsOptrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	out := filepath.Join(t.TempDir(), "ops.folded")
	if code := run(parse(t, "-exp", "allocbench", "-scale", "0.1", "-trace-collapse", out)); code != 0 {
		t.Fatalf("run = %d, want 0", code)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), ";op.write;") {
		t.Fatalf("folded file holds no op stack:\n%s", b)
	}
}
