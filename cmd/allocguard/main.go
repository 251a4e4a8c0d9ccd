// Command allocguard enforces zero-allocation budgets from `go test
// -bench -benchmem` output. It reads benchmark lines from stdin (or from
// a file argument), selects the benchmarks matching -match, and exits
// nonzero if any selected line reports a nonzero allocs/op — or if nothing
// matched at all, so a renamed benchmark cannot silently dodge the guard.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkEncode -benchmem ./internal/wire/ | allocguard
//	allocguard -match '^BenchmarkEncode' bench.txt
//
// The default fits this repository's hot-path codec benchmarks: every
// BenchmarkEncode* must be allocation-free.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	match := flag.String("match", "^BenchmarkEncode", "regexp selecting benchmark names to enforce")
	flag.Parse()

	matchRE, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocguard: bad -match: %v\n", err)
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "allocguard: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}

	checked, failed := 0, 0
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[len(fields)-1] != "allocs/op" {
			continue
		}
		// Benchmark names carry a -P GOMAXPROCS suffix; match on the bare name.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		if !matchRE.MatchString(name) {
			continue
		}
		checked++
		allocs, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "allocguard: unparseable allocs/op in %q\n", line)
			os.Exit(2)
		}
		if allocs != 0 {
			failed++
			fmt.Fprintf(os.Stderr, "allocguard: %s allocates: %d allocs/op (budget is 0)\n", name, allocs)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "allocguard: %v\n", err)
		os.Exit(2)
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "allocguard: no benchmark lines matched %q — the guard enforced nothing\n", *match)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("allocguard: %d benchmark(s) allocation-free\n", checked)
}
