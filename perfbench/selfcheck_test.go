package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-check: every workload of BENCHMARK.json runs at tiny sizes,
// traced and untraced, and prints exactly that file's metrics with
// their units; a corrupted expected answer fails the run.

const benchmarkJSON = "../BENCHMARK.json"

func buildFaqd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "faqd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/faqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build faqd: %v\n%s", err, out)
	}
	return bin
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one tiny workload and returns its exit code, parsed
// result line, and the report line's "reported" metrics.
func runTiny(t *testing.T, faqd, workload, trace string, extra ...string) (int, resultLine, map[string]struct{ Unit string }) {
	t.Helper()
	args := append([]string{"-benchmark", benchmarkJSON, "-workload", workload, "-seed", "3", "-seconds", "0.4",
		"-trace", trace, "-tiny", "-faqd", faqd}, extra...)
	var out bytes.Buffer
	code, err := run(args, &out)
	if code == 2 {
		t.Fatalf("%s trace=%s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", workload, err, last)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has keys %v, want correct/attempted/failed/metrics", workload, keys)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Report struct {
			Reported map[string]struct{ Unit string } `json:"reported"`
		} `json:"report"`
	}
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil {
		t.Fatalf("%s: no report line before the result", workload)
	}
	return code, res, rep.Report.Reported
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	faqd := buildFaqd(t)
	cat, err := loadCatalog(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, res, reported := runTiny(t, faqd, w, trace)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: exit %d, correct %v, attempted %d, failed %d",
					w, trace, code, res.Correct, res.Attempted, res.Failed)
			}
			want := cat.EndToEnd
			if trace == "1" {
				want = cat.PerLayer
			}
			for _, m := range cat.Reported {
				if got, ok := reported[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: report line lacks %s in %s", w, trace, m.Name, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want a value in %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestCorruptExpectedAnswerFails(t *testing.T) {
	faqd := buildFaqd(t)
	cat, err := loadCatalog(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		code, res, _ := runTiny(t, faqd, w, "0", "-corrupt-expected")
		if code != 1 || res.Correct {
			t.Errorf("%s with a corrupted expected answer: exit %d, correct %v; want exit 1, correct false",
				w, code, res.Correct)
		}
	}
}
