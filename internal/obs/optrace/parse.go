package optrace

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"waflfs/internal/obs/rule"
)

// FormatTraceID renders a trace ID the way every surface prints it:
// zero-padded lowercase hex with an 0x prefix, e.g. 0x00c0ffee00c0ffee.
func FormatTraceID(id uint64) string {
	return fmt.Sprintf("0x%016x", id)
}

// ParseTraceID parses a trace ID as printed by FormatTraceID (0x hex, any
// width) or as the plain decimal JSON encoding. The zero ID is rejected —
// recorded traces are never 0, so 0 only ever means "no filter".
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	base := 10
	if rest, ok := strings.CutPrefix(s, "0x"); ok {
		s, base = rest, 16
	} else if rest, ok := strings.CutPrefix(s, "0X"); ok {
		s, base = rest, 16
	}
	id, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, fmt.Errorf("optrace: bad trace id %q: %v", s, err)
	}
	if id == 0 {
		return 0, fmt.Errorf("optrace: trace id 0 is reserved")
	}
	return id, nil
}

// ParseConfig parses the -optrace flag spec, one clause of the shared
// grammar (internal/obs/rule): comma-separated key=value fields
// "rate=N[,slow=D][,cap=N][,seed=N]", where slow takes a time.ParseDuration
// string. Omitted keys keep their Config defaults; the bare spec "default"
// (or "") selects DefaultConfig.
func ParseConfig(spec string) (Config, error) {
	cfg := DefaultConfig()
	if strings.TrimSpace(spec) == "default" {
		return cfg, nil
	}
	err := rule.Fields(spec, func(key, val string) (err error) {
		switch key {
		case "rate":
			cfg.Rate, err = positive(strconv.Atoi(val))
		case "slow":
			var d time.Duration
			d, err = positive(time.ParseDuration(val))
			cfg.SlowNS = uint64(d)
		case "cap":
			cfg.Capacity, err = positive(strconv.Atoi(val))
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		return err
	})
	if err != nil {
		return Config{}, fmt.Errorf("optrace: %w", err)
	}
	return cfg, nil
}

// positive passes a parsed value through, rejecting zero and below.
func positive[N int | time.Duration](n N, err error) (N, error) {
	if err == nil && n <= 0 {
		err = fmt.Errorf("%v is not positive", n)
	}
	return n, err
}

// String renders the config in canonical spec form, parseable by
// ParseConfig: ParseConfig(c.String()) round-trips any normalized config.
func (c Config) String() string {
	c = c.normalized()
	return fmt.Sprintf("rate=%d,slow=%s,cap=%d,seed=%d",
		c.Rate, time.Duration(c.SlowNS), c.Capacity, c.Seed)
}
