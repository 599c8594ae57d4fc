// awdbench turns `go test -bench` output into the committed benchmark
// ledgers (BENCH_perf.json, BENCH_fleet.json). It reads benchmark lines
// from stdin, collects ns/op, B/op, and allocs/op per benchmark (multiple
// -count runs become a list of ns/op samples), records any custom
// b.ReportMetric units (e.g. the fleet benchmarks' steps/sec) alongside
// them, and writes everything under one phase of the output file,
// preserving whatever the other phase already records — so the "before"
// numbers measured on the baseline survive every "after" re-measurement.
//
// Each section is stamped with the tree it was measured at: the short HEAD
// hash, followed by "+" and a digest of the uncommitted changes when
// tracked files differ from HEAD ("unknown" outside a git checkout); the
// free-form -note context is recorded separately under "note", so the
// provenance of a ledger row is machine-checkable rather than whatever the
// Makefile's note string claimed.
//
// Usage:
//
//	go test -run '^$' -bench X -benchmem -count 3 . | \
//	    go run ./cmd/awdbench -out BENCH_perf.json -phase after -note "this PR"
//
// A second mode gates scaling flatness instead of recording numbers:
//
//	go run ./cmd/awdbench -check-flat BENCH_fleet.json -phase after \
//	    -base streams=1000 -min-frac 0.35
//
// reads the named ledger and fails (exit 1) when the largest-stream
// BenchmarkFleetSteps row's best steps/sec falls below min-frac times the
// base row's best — the guard `make bench-fleet` runs after re-measuring,
// so a cache-locality regression that only shows at fleet scale cannot
// land silently.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

type result struct {
	NsPerOp     []float64            `json:"ns_per_op"`
	BytesPerOp  int64                `json:"bytes_per_op"`
	AllocsPerOp int64                `json:"allocs_per_op"`
	Metrics     map[string][]float64 `json:"metrics,omitempty"`
}

// procsSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("out", "BENCH_perf.json", "ledger file to update")
	phase := flag.String("phase", "after", `ledger section to (re)write: "before" or "after"`)
	note := flag.String("note", "", "commit/context note recorded in the section")
	title := flag.String("title", "", "top-level benchmark description (set on first write)")
	keepprocs := flag.Bool("keepprocs", false,
		"keep the -GOMAXPROCS suffix in benchmark names (for -cpu sweeps, so runs at different parallelism stay separate)")
	checkFlat := flag.String("check-flat", "",
		"ledger file to verify instead of record: fail unless the largest-stream row's best steps/sec is at least min-frac of the base row's")
	base := flag.String("base", "streams=1000", "benchmark suffix of the flatness baseline row (with -check-flat)")
	minFrac := flag.Float64("min-frac", 0.35,
		"minimum largest-stream/base steps-per-second ratio accepted by -check-flat")
	scaleKey := flag.String("scale-key", "streams",
		"row-name key whose =N value picks the largest row compared against base (with -check-flat)")
	metric := flag.String("metric", "steps/sec",
		"custom metric unit the -check-flat gate compares (min-frac > 1 turns the gate into a speedup floor)")
	flag.Parse()
	if *phase != "before" && *phase != "after" {
		fmt.Fprintf(os.Stderr, "awdbench: -phase must be before or after, got %q\n", *phase)
		os.Exit(2)
	}
	if *checkFlat != "" {
		if err := checkFlatness(*checkFlat, *phase, *base, *scaleKey, *metric, *minFrac); err != nil {
			fmt.Fprintf(os.Stderr, "awdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	section := map[string]any{"commit": gitCommit()}
	if *note != "" {
		section["note"] = *note
	}
	results := map[string]*result{}
	host := ""

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays visible
		if strings.HasPrefix(line, "cpu:") {
			host = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		// A result line is "BenchmarkName-P  <iters>  <value> <unit> ...",
		// the value/unit pairs being whatever the benchmark reported
		// (ns/op, -benchmem's B/op and allocs/op, plus custom
		// b.ReportMetric units like the fleet benchmarks' steps/sec).
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := fields[0]
		if !*keepprocs {
			name = procsSuffix.ReplaceAllString(name, "")
		}
		r := results[name]
		if r == nil {
			r = &result{}
			results[name] = r
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = append(r.NsPerOp, v)
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Metrics == nil {
					r.Metrics = map[string][]float64{}
				}
				r.Metrics[unit] = append(r.Metrics[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "awdbench: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "awdbench: no benchmark lines found on stdin")
		os.Exit(1)
	}
	for name, r := range results {
		section[name] = r
	}

	ledger := map[string]any{}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &ledger); err != nil {
			fmt.Fprintf(os.Stderr, "awdbench: %s exists but is not JSON: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *title != "" {
		ledger["benchmark"] = *title
	}
	if host != "" {
		ledger["host"] = host
	}
	ledger[*phase] = section

	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "awdbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "awdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "awdbench: wrote %d benchmarks to %s (%s)\n", len(results), *out, *phase)
}

// gitCommit returns the stamp of the checkout the benchmarks ran in (see
// commitStamp), or "unknown" when git (or a repository) is unavailable —
// the ledger must still be writable from an exported tarball. The diff
// leaves out the BENCH_*.json ledgers, so the phases of one `make bench-*`
// run, which rewrite a ledger between them, carry the same stamp.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	diff, err := exec.Command("git", "diff", "--no-ext-diff", "--no-color", "--binary", "HEAD",
		"--", ":/", ":(top,exclude)BENCH_*.json").Output()
	if err != nil {
		return "unknown"
	}
	return commitStamp(strings.TrimSpace(string(head)), diff)
}

// commitStamp formats a ledger stamp from the short HEAD hash and the diff
// of the tracked files against HEAD: the bare hash for a clean tree, else
// the hash, "+" and the first 12 hex digits of the diff's SHA-256, so a
// ledger regenerated before its change is committed names the tree it
// measured rather than the parent commit.
func commitStamp(head string, diff []byte) string {
	if len(diff) == 0 {
		return head
	}
	sum := sha256.Sum256(diff)
	return head + "+" + hex.EncodeToString(sum[:])[:12]
}

// checkFlatness is the -check-flat mode: it loads the phase section of the
// ledger, finds the baseline row (name ending in base) and the row with
// the largest "<scaleKey>=N" value, and compares their best samples of the
// named metric. Best-of-samples makes the gate one-sided against scheduler
// noise: a slow outlier sample cannot fail a healthy tree, only a tree
// whose peak throughput actually regressed fails. With minFrac < 1 this is
// a flatness gate (scaling must not collapse); with minFrac > 1 it is a
// speedup floor (the largest row must beat the base by that factor), which
// is how `make bench-serve` pins batched ingest against batch=1.
func checkFlatness(path, phase, base, scaleKey, metric string, minFrac float64) error {
	scaleRe, err := regexp.Compile(`/` + regexp.QuoteMeta(scaleKey) + `=(\d+)$`)
	if err != nil {
		return fmt.Errorf("scale-key %q: %v", scaleKey, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ledger map[string]json.RawMessage
	if err := json.Unmarshal(data, &ledger); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	raw, ok := ledger[phase]
	if !ok {
		return fmt.Errorf("%s: no %q section", path, phase)
	}
	var section map[string]json.RawMessage
	if err := json.Unmarshal(raw, &section); err != nil {
		return fmt.Errorf("%s: %q section: %v", path, phase, err)
	}
	baseBest, maxBest := 0.0, 0.0
	baseName, maxName, maxScale := "", "", -1
	for name, raw := range section {
		m := scaleRe.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: row %s: %v", path, name, err)
		}
		best := 0.0
		for _, v := range r.Metrics[metric] {
			if v > best {
				best = v
			}
		}
		if best == 0 {
			return fmt.Errorf("%s: row %s has no %s samples", path, name, metric)
		}
		if strings.HasSuffix(name, base) {
			baseName, baseBest = name, best
		}
		if n, _ := strconv.Atoi(m[1]); n > maxScale {
			maxScale, maxName, maxBest = n, name, best
		}
	}
	if baseName == "" {
		return fmt.Errorf("%s: no row matching base %q in %q section", path, base, phase)
	}
	if maxName == baseName {
		return fmt.Errorf("%s: largest %s row is the base row %s; nothing to gate", path, scaleKey, baseName)
	}
	frac := maxBest / baseBest
	fmt.Fprintf(os.Stderr, "awdbench: flatness %s: %s %.0f %s vs %s %.0f %s = %.2f (min %.2f)\n",
		phase, maxName, maxBest, metric, baseName, baseBest, metric, frac, minFrac)
	if frac < minFrac {
		return fmt.Errorf("flatness gate failed: %s runs at %.2f of %s, below min-frac %.2f",
			maxName, frac, baseName, minFrac)
	}
	return nil
}
