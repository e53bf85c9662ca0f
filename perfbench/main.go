// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only through the latenttruth facade and its HTTP API, with
// the server under test and the load generator in one process.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
//
// One run measures one workload for --seconds on a corpus generated from
// --seed, checks every output, prints its self-description and every
// metric with unit and sample count, and ends with one JSON line:
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones of a traced run.
// --workload all runs every workload in turn, each in its own process;
// --seed2 repeats the runs on a second seed.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	lt "latenttruth"
)

func main() {
	workload := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed: generates the corpus and the load")
	seed2 := flag.Int64("seed2", 0, "a second seed to repeat the runs on (0: none)")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	seeds := []int64{*seed}
	if *seed2 != 0 {
		seeds = append(seeds, *seed2)
	}
	if len(names) == 1 && len(seeds) == 1 {
		if !runOne(names[0], *seed, time.Duration(*seconds)*time.Second, *trace == 1) {
			os.Exit(1)
		}
		return
	}
	if !runMany(names, seeds, *seconds, *trace) {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report. It
// returns whether every check passed.
func runOne(workload string, seed int64, window time.Duration, traced bool) bool {
	rep := newReport()
	root := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	err := os.MkdirAll(root, 0o755)
	if err == nil {
		defer os.RemoveAll(root)
		err = run(rep, workload, seed, window, traced, root)
	}
	if err != nil {
		rep.check(false, "%s: %v", workload, err)
	}
	if rep.attempted > 0 {
		rep.set("ok_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), rep.attempted)
	}
	want := endToEnd
	if traced {
		want = perLayer
	} else {
		for _, m := range endToEnd {
			got, ok := rep.metrics[m.name]
			rep.check(ok && !got.absent, "end-to-end metric %s was not measured", m.name)
		}
	}
	rep.write(os.Stdout, want)
	return rep.correct()
}

func run(rep *report, workload string, seed int64, window time.Duration, traced bool, root string) error {
	t0 := time.Now()
	c, err := genCorpus(seed, workload == "fit-batch")
	if err != nil {
		return fmt.Errorf("generating the corpus: %w", err)
	}
	rep.infof("workload=%s seed=%d window=%s trace=%v", workload, seed, window, traced)
	rep.infof("nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), vcsRevision(), sourceDigest())
	rep.infof("corpus: %d triples, %d facts, %d entities, %d sources, %d labeled facts (generated in %.2f s, not timed)",
		c.nRows, c.facts, len(c.entities), len(c.sources), c.nLabel, time.Since(t0).Seconds())
	e := &env{
		seed:    seed,
		window:  window,
		workers: runtime.NumCPU(),
		rep:     rep,
		root:    root,
		c:       c,
		gen:     newGen(seed, c.entities, c.sources, fmt.Sprint(seed)),
	}
	if traced {
		e.tr = newTracer(time.Now())
		defer func() {
			path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.tsv", workload, seed))
			if err := e.tr.write(path); err != nil {
				rep.check(false, "writing spans: %v", err)
			} else {
				rep.infof("spans: %s", path)
			}
		}()
	}
	switch workload {
	case "fit-batch":
		return e.runFitBatch()
	case "serve-read":
		return e.runServing(serving{
			main:      phase{rate: 200, mix: readMix, dur: window},
			closedMix: readMix,
			epilogue:  &mixedPhase,
		})
	case "serve-ingest":
		return e.runServing(serving{
			main: phase{rate: 300, mix: ingestMix, probes: 15, warmup: refitCycle,
				probeFor: probeCycles(window), dur: window},
			closedMix: ingestMix,
		})
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// vcsRevision is the commit the binary was built from, when the build
// saw one: the linker stamp, else the Go toolchain's VCS stamp.
func vcsRevision() string {
	if c := lt.BuildCommit(); c != "" && c != "none" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest identifies the source tree the benchmark runs on, for a
// checkout that carries no commit: a digest of every Go source and
// go.mod file under the working directory.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".bench_build" || strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runMany runs each workload on each seed in a child process of its own,
// passing its output through, and ends with one combined JSON line whose
// metrics are named <workload>@<seed>.<metric>.
func runMany(names []string, seeds []int64, seconds, trace int) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	all := map[string]any{}
	ok, attempted, failedOps := true, 0, 0
	for _, seed := range seeds {
		for _, name := range names {
			fmt.Printf("## %s seed=%d\n", name, seed)
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err == nil {
				err = cmd.Start()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				return false
			}
			last := passThrough(out, os.Stdout)
			if err := cmd.Wait(); err != nil {
				ok = false
			}
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: no result line\n", name)
				ok = false
				continue
			}
			ok = ok && res.Correct
			attempted += res.Attempted
			failedOps += res.Failed
			for k, v := range res.Metrics {
				all[fmt.Sprintf("%s@%d.%s", name, seed, k)] = v
			}
		}
	}
	line, _ := json.Marshal(map[string]any{"correct": ok, "attempted": max(attempted, 1), "failed": failedOps, "metrics": all})
	fmt.Println(string(line))
	return ok
}

// passThrough copies r to w line by line, holding back the last line,
// which it returns instead of printing.
func passThrough(r io.Reader, w io.Writer) string {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	last := ""
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	return last
}
