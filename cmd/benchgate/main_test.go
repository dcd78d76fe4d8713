package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// passing is a telemetry artifact inside every budget.
func passing() report {
	return report{
		Off:        entry{NsPerOp: 1000},
		On:         entry{NsPerOp: 1020},
		OverheadP:  2,
		Intro:      entry{NsPerOp: 1030},
		IntroOverP: 3,
		TraceOverP: 1,
		File: fileReplay{
			Off:       entry{NsPerOp: 2000, AllocsPerOp: 30},
			On:        entry{NsPerOp: 2040, AllocsPerOp: 32},
			OverheadP: 2,
		},
	}
}

// shards is a shard artifact measured on a host with the given cores.
func shards(cores int, speedup float64) shardReport {
	return shardReport{
		Cores:      cores,
		Points:     []shardPoint{{Shards: 1, NsPerOp: 1000}, {Shards: 8, NsPerOp: int64(1000 / speedup)}},
		SpeedupAt8: speedup,
	}
}

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		// measured mutates a passing telemetry artifact; nil gates the
		// baseline against itself.
		measured func(*report)
		// shard and shardMeasured, when non-nil, are passed as the
		// committed and the fresh shard artifact.
		shard, shardMeasured *shardReport
		// args are extra flags; files named "missing" do not exist.
		args []string
		code int
		want string // substring of stdout (code 0) or stderr
	}{
		{name: "all gates pass", code: 0, want: "benchgate: ok"},
		{name: "telemetry overhead in memory", measured: func(r *report) { r.OverheadP = 12 },
			code: 1, want: "in-memory replay: telemetry-on overhead 12.0%"},
		{name: "telemetry overhead file-backed", measured: func(r *report) { r.File.OverheadP = 11 },
			code: 1, want: "file-backed replay: telemetry-on overhead 11.0%"},
		{name: "introspection overhead", measured: func(r *report) { r.IntroOverP = 6 },
			code: 1, want: "introspection-on overhead 6.0%"},
		{name: "introspection arm absent", measured: func(r *report) { r.Intro, r.IntroOverP = entry{}, 50 },
			code: 0, want: "benchgate: ok"},
		{name: "trace overhead", measured: func(r *report) { r.TraceOverP = 7 },
			code: 1, want: "trace-attached overhead 7.0%"},
		{name: "alloc slack", measured: func(r *report) { r.File.Off.AllocsPerOp = 46 },
			code: 1, want: "file-backed replay (telemetry off): 46 allocs/op exceeds 45"},
		{name: "alloc within slack", measured: func(r *report) { r.File.On.AllocsPerOp = 48 },
			code: 0, want: "file-backed allocs/op off=30 on=48"},
		{name: "shard gate armed fails", shard: ptr(shards(8, 2.5)),
			code: 1, want: "8-shard speedup 2.50x below floor 3.00x on a 8-core host"},
		{name: "shard gate armed passes", shard: ptr(shards(16, 3.5)),
			code: 0, want: "shard speedup at 8 3.50x (floor 3.00x, 16 cores)"},
		{name: "shard gate judges the fresh measurement", shard: ptr(shards(8, 4)), shardMeasured: ptr(shards(8, 2)),
			code: 1, want: "8-shard speedup 2.00x below floor"},
		{name: "shard gate disarmed passes sanity", shard: ptr(shards(2, 0.5)),
			code: 0, want: "shard ratio at 8 0.50x on 2-core host"},
		{name: "shard gate disarmed fails sanity", shard: ptr(shards(2, 0.3)),
			code: 1, want: "below sanity floor 0.40x"},
		{name: "missing baseline", args: []string{"-baseline", "missing"},
			code: 2, want: "no such file"},
		{name: "missing measured", args: []string{"-measured", "missing"},
			code: 2, want: "no such file"},
		{name: "zero measured", measured: func(r *report) { r.Off.NsPerOp = 0 },
			code: 2, want: "missing or zero measurements"},
		{name: "missing shard artifact", args: []string{"-shard-baseline", "missing"},
			code: 2, want: "no such file"},
		{name: "zero shard artifact", shard: &shardReport{Cores: 8},
			code: 2, want: "missing or zero shard measurements"},
		{name: "unknown flag", args: []string{"-no-such-flag"},
			code: 2, want: "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-baseline", writeJSON(t, dir, "baseline.json", passing())}
			if tc.measured != nil {
				m := passing()
				tc.measured(&m)
				args = append(args, "-measured", writeJSON(t, dir, "measured.json", m))
			}
			if tc.shard != nil {
				args = append(args, "-shard-baseline", writeJSON(t, dir, "shard.json", *tc.shard))
			}
			if tc.shardMeasured != nil {
				args = append(args, "-shard-measured", writeJSON(t, dir, "shard-measured.json", *tc.shardMeasured))
			}
			for _, a := range tc.args {
				if a == "missing" {
					a = filepath.Join(dir, "missing.json")
				}
				args = append(args, a)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			out := stderr.String()
			if code == 0 {
				out = stdout.String()
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
