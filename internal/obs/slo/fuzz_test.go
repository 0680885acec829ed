package slo

import (
	"reflect"
	"testing"
)

// FuzzParseSLOSpec drives the spec parser with arbitrary input. Accepted
// specs must survive a canonical-form round trip: FormatSpecs output
// reparses to the identical portfolio. verify.sh runs this for a few
// seconds as a smoke.
func FuzzParseSLOSpec(f *testing.F) {
	f.Add("default")
	f.Add("default;name=x,kind=fallback,target=0.5")
	f.Add("name=slowvol,kind=latency,space=vol.db-*,target=0.995,threshold=10ms," +
		"page=14@15s/2m,warn=3@1m/10m,hold=2,min=32")
	f.Add("kind=stall,target=0.9")
	f.Add("kind=ratio,target=0.5,bad=picks.bitmap_fallback,total=picks.recorded")
	f.Add("kind=recovery,target=0.999,page=10@2s/4s,warn=9@2s/4s")
	f.Add("kind=latency,target=0.99,threshold=1h,page=1e300@1ns/1ns")
	f.Add(";;,=,@,/")
	f.Add("kind=recovery,target=0.9,page=NaN@1s/2s")
	f.Add("kind=recovery,target=0.9,page=Inf@1s/2s")
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseSpecs(in)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("nil error with no specs for %q", in)
		}
		canon := FormatSpecs(specs)
		again, err := ParseSpecs(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, in, err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip drifted for %q:\n%+v\nvs\n%+v", in, specs, again)
		}
	})
}
