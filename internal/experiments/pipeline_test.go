package experiments

import (
	"io"
	"reflect"
	"testing"

	"waflfs/internal/faultinject"
)

func TestPipelineBenchGainAndIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	b := RunPipelineBench(cfg, io.Discard)
	if b.Generations != pipelineBenchRounds {
		t.Fatalf("generations = %d, want %d", b.Generations, pipelineBenchRounds)
	}
	if err := b.Gate(); err != nil {
		t.Fatalf("%v (alloc %v, flush %v)", err, b.AllocWall, b.FlushWall)
	}
	if b.SerialWall != b.AllocWall+b.FlushWall {
		t.Errorf("serial wall %v != alloc %v + flush %v", b.SerialWall, b.AllocWall, b.FlushWall)
	}
}

func TestPipelineCrashMatrixNoSilentDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunPipelineCrashMatrix(crashConfig(), io.Discard)
	if want := len(faultinject.OverlapPhases()) * len(faultinject.Kinds()); len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	if div := res.Divergent(); len(div) > 0 {
		t.Fatalf("silent divergence in %d cells; first: %s × %s: %s",
			len(div), div[0].Phase, div[0].Fault, div[0].FirstDivergence)
	}
	for _, c := range res.Cells {
		if !c.Crashed {
			t.Errorf("%s × %s: crash point never fired", c.Phase, c.Fault)
		}
		if got := c.Stale + c.Torn + c.Damaged + c.Missing; got != c.Fallbacks {
			t.Errorf("%s × %s: fallback classes sum %d != %d", c.Phase, c.Fault, got, c.Fallbacks)
		}
		if c.CleanLoads+c.Reconstructed+c.Fallbacks != c.Spaces {
			t.Errorf("%s × %s: outcome classes don't cover %d spaces: %+v", c.Phase, c.Fault, c.Spaces, c)
		}
	}
}

func TestPipelineCrashMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := crashConfig()
	cfg.Workers = 1
	serial := RunPipelineCrashMatrix(cfg, io.Discard)
	cfg.Workers = 8
	wide := RunPipelineCrashMatrix(cfg, io.Discard)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("pipelined crash matrix differs between 1 and 8 workers")
	}
}
