package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jouppi/internal/workload"
)

// writeDineroTrace writes a small benchmark trace in dinero text format
// and returns its path.
func writeDineroTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "met.din")
	tr := workload.GenerateTrace(workload.Met(), 0.02)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteDinero(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fanoutRow extracts the whitespace-separated numeric cells of the table
// row whose config label is name.
func fanoutRow(t *testing.T, out, name string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] == name {
			return fields[1:]
		}
	}
	t.Fatalf("no fan-out row for %q in output:\n%s", name, out)
	return nil
}

// singleStat pulls "label:   value" numbers out of the single-config
// output for cross-checking against the fan-out table.
func singleStat(t *testing.T, out, label string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, label) {
			fields := strings.Fields(strings.TrimPrefix(line, label))
			if len(fields) == 0 {
				break
			}
			return fields[0]
		}
	}
	t.Fatalf("no %q line in output:\n%s", label, out)
	return ""
}

// TestFanoutMatchesSingleRuns is the CLI-level equivalence pin: every row
// of a -fanout replay must report exactly the numbers the corresponding
// single-configuration invocation reports from its own decode of the same
// trace file.
func TestFanoutMatchesSingleRuns(t *testing.T) {
	path := writeTestTrace(t)
	specs := map[string][]string{
		"baseline":    nil,
		"victim=4":    {"-victim", "4"},
		"misscache=4": {"-misscache", "4"},
		"ways=4":      {"-ways", "4"},
	}
	code, out, errOut := runCmd(t, "-trace", path, "-side", "data",
		"-fanout", "; victim=4 ; misscache=4 ; ways=4")
	if code != 0 {
		t.Fatalf("fanout run failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "4 configurations, one trace pass") {
		t.Errorf("missing fan-out banner:\n%s", out)
	}
	for label, flags := range specs {
		args := append([]string{"-trace", path, "-side", "data"}, flags...)
		scode, sout, serr := runCmd(t, args...)
		if scode != 0 {
			t.Fatalf("single run %v failed (%d): %s", flags, scode, serr)
		}
		row := fanoutRow(t, out, label)
		if got, want := row[0], singleStat(t, sout, "accesses:"); got != want {
			t.Errorf("%s accesses: fanout %s, single %s", label, got, want)
		}
		if got, want := row[1], singleStat(t, sout, "L1 misses:"); got != want {
			t.Errorf("%s L1 misses: fanout %s, single %s", label, got, want)
		}
		if got, want := row[3], singleStat(t, sout, "full misses:"); got != want {
			t.Errorf("%s full misses: fanout %s, single %s", label, got, want)
		}
	}
}

// TestFanoutSpecErrors covers the parser's failure modes and flag
// interactions.
func TestFanoutSpecErrors(t *testing.T) {
	path := writeTestTrace(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad pair", []string{"-fanout", "victim"}, "want key=value"},
		{"unknown key", []string{"-fanout", "entries=4"}, "unknown key"},
		{"bad int", []string{"-fanout", "victim=many"}, "victim"},
		{"bad bool", []string{"-fanout", "quasi=perhaps"}, "quasi"},
		{"conflict", []string{"-fanout", "misscache=2,victim=2"}, "misscache"},
		{"negative victim", []string{"-fanout", "victim=-1"}, "victim must not be negative"},
		{"negative depth", []string{"-fanout", "ways=2,depth=-1"}, "depth must not be negative"},
		{"bad geometry", []string{"-fanout", "size=1000"}, "size"},
		{"classify", []string{"-fanout", "victim=2", "-classify"}, "-classify"},
	}
	for _, tc := range cases {
		args := append([]string{"-trace", path}, tc.args...)
		code, _, errOut := runCmd(t, args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: code %d, stderr %q (want code 2 containing %q)",
				tc.name, code, errOut, tc.want)
		}
	}
}

// TestFanoutDineroAndTelemetry replays a dinero-format trace through the
// fan-out arm with metrics enabled — the decode-once case the engine is
// built for — and checks the run completes with the engine metrics
// exposed.
func TestFanoutDineroAndTelemetry(t *testing.T) {
	path := writeDineroTrace(t)
	code, out, errOut := runCmd(t, "-trace", path, "-format", "din",
		"-metrics-addr", "127.0.0.1:0",
		"-fanout", ";victim=2;victim=4,ways=4")
	if code != 0 {
		t.Fatalf("code %d: %s", code, errOut)
	}
	if !strings.Contains(out, "3 configurations") {
		t.Errorf("banner missing:\n%s", out)
	}
}
