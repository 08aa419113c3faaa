// Command perfbench is PATA's end-to-end benchmark. It generates a seeded
// corpus, drives one workload against shipped defaults for a fixed time,
// checks every output against the generator's ground truth and against a
// reference report, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload scan-linux --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a traced run
// that times every layer from outside, by wrapping the calls into the
// layers' public functions, and reports the per-layer metrics. Spans,
// samples and the environment envelope go to
// .bench_build/results/<workload>-seed<N>-trace<T>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	pata "repro"
	"repro/internal/oscorpus"
	"repro/internal/report"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	shape  string
	spec   func() oscorpus.OSSpec
	expect expectation
	run    func(b *bench) error
}

var workloads = []*workload{
	{name: "scan-linux", shape: "linux-like ×12, 2 helper clusters per drivers unit",
		spec: linuxScanSpec, expect: linuxExpect, run: runScan},
	{name: "scan-validate", shape: "validate-heavy ×48",
		spec: validateScanSpec, expect: validateExpect, run: runScan},
	{name: "edit-loop", shape: "linux-like ×4, resident patad, one closed-loop client",
		spec: editLoopSpec, expect: linuxExpect, run: runEditLoop},
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

// hardLimit bounds one benchmark process: measuring stops early rather
// than overrun it.
const hardLimit = 150 * time.Second

// endToEnd lists the end-to-end metrics (tracing off) with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scan_s", "s"},
	{"kloc_per_s", "kloc/s"},
	{"edit_ms_p50", "ms"},
	{"edit_ms_p75", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run with their units.
var perLayer = []metricDef{
	{"minicc.lower_ms", "ms"},
	{"minicc.alloc_mb", "MB"},
	{"cir.fingerprint_ms", "ms"},
	{"callgraph.build_ms", "ms"},
	{"callgraph.entry_key_ms", "ms"},
	{"callgraph.entries", "count"},
	{"core.self_ms", "ms"},
	{"core.steps", "count"},
	{"core.paths", "count"},
	{"core.steps_per_ms", "1/ms"},
	{"core.budget_trips", "count"},
	{"core.work_steals", "count"},
	{"core.canon_ms", "ms"},
	{"core.cursor_ms", "ms"},
	{"core.prune_hits", "count"},
	{"core.memo_hits", "count"},
	{"core.summary_hits", "count"},
	{"core.adaptive_light_frac", "frac"},
	{"pathval.busy_ms", "ms"},
	{"pathval.candidates", "count"},
	{"pathval.solver_ms", "ms"},
	{"pathval.cache_hit_frac", "frac"},
	{"pathval.batched_frac", "frac"},
	{"pathval.refuted_frac", "frac"},
	{"acache.loads", "count"},
	{"acache.load_ms", "ms"},
	{"acache.load_kb", "KB"},
	{"acache.hit_frac", "frac"},
	{"acache.saves", "count"},
	{"acache.save_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.kb", "KB"},
	{"patad.populate_ms", "ms"},
	{"patad.invalidate_ms", "ms"},
	{"patad.analyze_ms", "ms"},
	{"patad.frontier", "count"},
	{"patad.response_kb", "KB"},
	{"patad.overhead_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"trace.gap_frac", "frac"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	started time.Time
	work    string // scratch directory for cache stores
	stderr  io.Writer

	env       envelope
	attempted int
	failures  []string
	values    map[string]float64
	samples   map[string][]float64
	rec       *recorder
}

// op records one checked operation; err non-nil marks it failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// measuring reports whether the timed phase that began at t0 should go
// on, given ops done so far and the minimum the workload needs.
func (b *bench) measuring(t0 time.Time, done, minOps int) bool {
	if time.Since(b.started) > hardLimit {
		return false
	}
	return time.Since(t0) < b.seconds || done < minOps
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// setMedians sets every sampled per-layer metric to the median of its
// per-op samples.
func (b *bench) setMedians() {
	for _, d := range perLayer {
		if xs, ok := b.samples[d.name]; ok {
			b.set(d.name, median(xs))
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scan-linux, scan-validate or edit-loop")
	seed := fs.Int64("seed", 0, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (scan-linux, scan-validate, edit-loop), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	outDir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Dir(outDir), "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, started: time.Now(), work: work, stderr: stderr,
		values: make(map[string]float64), samples: make(map[string][]float64),
	}
	if b.trace {
		b.rec = newRecorder()
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	detail := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := b.writeDetail(detail, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env, err := json.Marshal(map[string]any{"envelope": b.env})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode envelope: %v\n", err)
		return 1
	}
	// A metric that came out NaN or infinite fails here, before any
	// output, rather than printing a result line that is not JSON.
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(env))
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result assembles the output line: every end-to-end metric untraced,
// every per-layer metric traced. A per-layer metric the workload does not
// exercise reads 0.
func (b *bench) result() (result, error) {
	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   make(map[string]metric),
	}
	if b.attempted == 0 {
		return res, fmt.Errorf("no operation attempted")
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !b.trace {
			return res, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// writeDetail writes the envelope, the result, the per-op samples, the
// failures and (traced runs) every span to path.
func (b *bench) writeDetail(path string, res result) error {
	detail := map[string]any{
		"envelope": b.env,
		"result":   res,
		"samples":  b.samples,
		"failures": b.failures,
	}
	if b.rec != nil {
		detail["spans"] = b.rec.spans
	}
	data, err := json.Marshal(detail)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// render is the text report the pata CLI prints for res, without the
// optional witness and stats trailers; patad renders the same text.
func render(res *pata.Result) string {
	if len(res.Bugs) > 0 {
		return res.String()
	}
	var sb strings.Builder
	sb.WriteString("no bugs found\n")
	report.WriteIncomplete(&sb, res.Incomplete)
	return sb.String()
}
