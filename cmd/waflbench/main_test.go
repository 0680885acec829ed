package main

import (
	"flag"
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
		{name: "slo-expect alone", o: options{sloExpect: "none"}, want: "-slo-expect requires -slo"},
		{name: "slo-expect value", o: options{sloSpec: "default", sloExpect: "some"}, want: "-slo-expect \"some\""},
		{name: "control-expect alone", o: options{controlExpect: "none"}, want: "-control-expect requires -control"},
		{name: "control-expect value", o: options{controlSpec: "default", controlExpect: "x"}, want: "-control-expect \"x\""},
		{name: "one mode", o: options{faults: "phase=flush"}},
		{name: "exp and faults", o: options{exp: "fig9", faults: "phase=flush"}, expSet: true, want: "give one"},
		{name: "faults and artifact", o: options{faults: "phase=flush", benchJSON: "B.json"}, want: "give one"},
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
			"Name", "Export", "Tracer", "CSV", "Frag", "FragEvery", "TSDB", "Picks",
			"Live", "Watchdogs", "OpTrace", "SLO", "Control",
		}},
		{"experiments.Config", fields(experiments.Config{}), []string{
			"Scale", "Seed", "Cores", "Think", "Clients", "DeviceParallel", "Workers", "Obs",
		}},
		{"waflbench flags", flags, []string{ // VisitAll walks in name order
			"bench-json", "control", "control-expect", "cores", "cpuprofile", "csv-out",
			"exp", "faults", "hold", "list", "memprofile", "metrics-addr", "optrace",
			"parallel", "scale", "seed", "slo", "slo-expect", "trace-collapse", "trace-out",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s has %d options %v,\nthe pinned surface has %d %v",
				tc.surface, len(tc.got), tc.got, len(tc.want), tc.want)
		}
	}
}
