package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
	"time"

	"drizzle/internal/metrics"
)

// maxConfigFields is the ratchet on Config's size. A knob that nothing
// sets is a constant or a derivation, not a field; lower this number when
// a field goes, never raise it to make room for one.
const maxConfigFields = 23

// TestConfigFieldRatchet holds every options type of the runtime to the
// same rule as Config: each row names the file that declares the type and
// the most fields it may have.
func TestConfigFieldRatchet(t *testing.T) {
	for _, r := range []struct {
		file, typ string
		max       int
	}{
		{"config.go", "Config", maxConfigFields},
		{"../rpc/tcp.go", "TCPConfig", 6},
		{"../rpc/inmem.go", "InMemConfig", 5}, // Seed stays: chaos seeds each scenario's jitter
		{"../wal/wal.go", "Options", 1},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), r.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := -1
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || ts.Name.Name != r.typ {
				return true
			}
			n = 0
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				n += max(len(field.Names), 1)
			}
			return false
		})
		if n < 0 {
			t.Errorf("type %s not found in %s", r.typ, r.file)
		} else if n > r.max {
			t.Errorf("%s in %s has %d fields, more than the ratchet's %d", r.typ, r.file, n, r.max)
		}
	}
}

// TestRemovedKnobValues pins each knob that used to be a Config field to
// the value withDefaults gave it then, at two points of the fields it is
// derived from.
func TestRemovedKnobValues(t *testing.T) {
	constants := []struct {
		name      string
		got, want any
	}{
		{"ShuffleServers", shuffleServers, 2},
		{"ShuffleQueue", shuffleQueue, 1024},
		{"HealthBlacklistRatio", healthBlacklistRatio, 4.0},
		{"HealthFailureThreshold", healthFailureThreshold, 3},
		{"HealthProbation", healthProbation, 2 * time.Second},
		{"MetricFullShipEvery", metricFullShipEvery, 8},
		{"TelemetryDepth", metrics.DefaultHistoryDepth, 128},
		{"SLOLatencyFactor", sloLatencyFactor, 2.0},
		{"SLOSustainTicks", sloSustainTicks, 3},
		{"SpeculationInterval", specInterval, 20 * time.Millisecond},
		{"SpeculationMinCompleted", specMinCompleted, 6},
		{"SpeculationMaxConcurrent", specMaxConcurrent, 8},
	}
	for _, c := range constants {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	points := []struct {
		cfg Config
		// The parent's defaults at this point.
		reRegisterAfter, metricEvictAfter, sloCooldown, telemetryInterval time.Duration
		sloQueueDepthMax, sloMinBacklog                                   int
	}{
		{
			cfg:             Config{HeartbeatInterval: 50 * time.Millisecond, GroupSize: 5, SlotsPerWorker: 4},
			reRegisterAfter: 200 * time.Millisecond, metricEvictAfter: 2 * time.Second, sloCooldown: 2500 * time.Millisecond,
			telemetryInterval: 250 * time.Millisecond, sloQueueDepthMax: 8, sloMinBacklog: 10,
		},
		{
			cfg:             Config{HeartbeatInterval: 200 * time.Millisecond, GroupSize: 10, SlotsPerWorker: 2},
			reRegisterAfter: 800 * time.Millisecond, metricEvictAfter: 8 * time.Second, sloCooldown: 10 * time.Second,
			telemetryInterval: time.Second, sloQueueDepthMax: 4, sloMinBacklog: 20,
		},
	}
	for i, p := range points {
		c := p.cfg.withDefaults()
		if got := c.reRegisterAfter(); got != p.reRegisterAfter {
			t.Errorf("point %d: ReRegisterAfter = %v, want %v", i, got, p.reRegisterAfter)
		}
		if got := c.metricEvictAfter(); got != p.metricEvictAfter {
			t.Errorf("point %d: MetricEvictAfter = %v, want %v", i, got, p.metricEvictAfter)
		}
		if got := c.telemetryInterval(); got != p.telemetryInterval {
			t.Errorf("point %d: TelemetryInterval = %v, want %v", i, got, p.telemetryInterval)
		}
		if got := c.sloCooldown(); got != p.sloCooldown {
			t.Errorf("point %d: SLOCooldown = %v, want %v", i, got, p.sloCooldown)
		}
		if got := newSLOWatcher(c, nil, nil, nil).cooldown; got != p.sloCooldown {
			t.Errorf("point %d: watcher cooldown = %v, want %v", i, got, p.sloCooldown)
		}
		if got := c.sloQueueDepthMax(); got != p.sloQueueDepthMax {
			t.Errorf("point %d: SLOQueueDepthMax = %v, want %v", i, got, p.sloQueueDepthMax)
		}
		if got := c.sloMinBacklog(); got != p.sloMinBacklog {
			t.Errorf("point %d: SLOMinBacklog = %v, want %v", i, got, p.sloMinBacklog)
		}
	}
}
