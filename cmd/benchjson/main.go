// Command benchjson converts `go test -bench` output into a stable
// JSON document (ns/op, B/op and allocs/op per benchmark) and gates a
// candidate document against a committed baseline.
//
// Usage:
//
//	go test . -bench . -benchtime 1x -benchmem | benchjson -o BENCH.json
//	benchjson -compare BASELINE.json -against NEW.json [-metric UNIT] [-names A,B]
//
// The first form parses benchmark result lines from stdin. The second
// form exits non-zero if any baseline benchmark grew its -metric
// (default allocs/op) by more than 10% in the candidate, or is missing
// from it — the gate that keeps the pooled hot path allocation-free
// and, with -metric ns/op, holds the decision flight recorder to its
// zero-overhead-off contract. -names restricts the gate to the listed
// benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// tolerance is the largest fractional growth -compare accepts.
const tolerance = 0.10

// Result is one benchmark's parsed measurements. Zero-valued metrics
// were absent from the input line (e.g. no -benchmem).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Metric reads one of the three builtin units off the result; ok is
// false when the unit is unknown or was not measured.
func (r Result) Metric(unit string) (v float64, ok bool) {
	switch unit {
	case "ns/op":
		v = r.NsPerOp
	case "B/op":
		v = r.BytesPerOp
	case "allocs/op":
		v = r.AllocsPerOp
	}
	return v, v > 0
}

// Document is the top-level JSON shape.
type Document struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		out     = flag.String("o", "", "output file (default stdout)")
		compare = flag.String("compare", "", "baseline JSON file: compare instead of parsing stdin")
		against = flag.String("against", "", "candidate JSON file for -compare")
		names   = flag.String("names", "", "comma-separated benchmark names to restrict -compare")
		metric  = flag.String("metric", "allocs/op", "metric unit compared by -compare (ns/op, B/op or allocs/op)")
	)
	flag.Parse()

	if *compare != "" {
		if err := runCompare(*compare, *against, *metric, *names); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse extracts benchmark result lines:
//
//	BenchmarkName-8   	       1	6151224890 ns/op	764668776 B/op	 3795622 allocs/op
func parse(sc *bufio.Scanner) (*Document, error) {
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	doc := &Document{}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "--- BENCH:" detail lines
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the GOMAXPROCS suffix so documents compare across machines.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	return doc, sc.Err()
}

func load(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]Result, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		m[b.Name] = b
	}
	return m, nil
}

// runCompare fails when a gated benchmark — every baseline entry, or
// the nameList entries when given — grew its metric beyond the
// tolerance, or is missing from either document or lacks the metric
// there.
func runCompare(basePath, newPath, metric, nameList string) error {
	if newPath == "" {
		return fmt.Errorf("-compare requires -against")
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(newPath)
	if err != nil {
		return err
	}
	var names []string
	if nameList != "" {
		names = strings.Split(nameList, ",")
	} else {
		for name := range base {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var failed []string
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			return fmt.Errorf("%s: benchmark %q not present", basePath, name)
		}
		c, ok := cand[name]
		if !ok {
			return fmt.Errorf("%s: benchmark %q not present", newPath, name)
		}
		bv, ok := b.Metric(metric)
		if !ok {
			return fmt.Errorf("%s: benchmark %q has no %q metric", basePath, name, metric)
		}
		cv, ok := c.Metric(metric)
		if !ok {
			return fmt.Errorf("%s: benchmark %q has no %q metric", newPath, name, metric)
		}
		growth := (cv - bv) / bv
		status := "ok"
		if growth > tolerance {
			status = "FAIL"
			failed = append(failed, name)
		}
		fmt.Printf("benchjson: %-32s %s %12.0f -> %12.0f (%+.1f%%) %s\n",
			name, metric, bv, cv, growth*100, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s regression (> %.0f%%) in: %s",
			metric, tolerance*100, strings.Join(failed, ", "))
	}
	return nil
}
