package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateGolden rewrites the .txt goldens instead of comparing against
// them (`make golden`).
var updateGolden = flag.Bool("update", false, "rewrite internal/harness/testdata/golden/*.txt")

// runEntry calls exactly what main calls and returns stdout, stderr and
// the exit status.
func runEntry(name string, args ...string) (string, string, int) {
	var out, errb bytes.Buffer
	status := dispatch(name, args, nil, &out, &errb)
	return out.String(), errb.String(), status
}

// TestGoldenEntries pins every table entry that declares golden args to
// its checked-in rendering, byte for byte, through the same run that
// main dispatches to.
func TestGoldenEntries(t *testing.T) {
	pinned := 0
	for _, e := range experiments() {
		if e.golden == nil {
			continue
		}
		pinned++
		t.Run(e.name, func(t *testing.T) {
			got, stderr, status := runEntry(e.name, e.golden...)
			if status != 0 {
				t.Fatalf("exit %d: %s", status, stderr)
			}
			path := filepath.Join("..", "..", "internal", "harness", "testdata", "golden", e.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `make golden`): %v", err)
			}
			if got != string(want) {
				t.Errorf("reqlens %s %s drifted from %s (run `make golden` only if intentional)",
					e.name, strings.Join(e.golden, " "), path)
			}
		})
	}
	if pinned == 0 {
		t.Fatal("no table entry declares golden args")
	}
}

// TestUsage: an unknown name exits 2 and lists every entry.
func TestUsage(t *testing.T) {
	out, stderr, status := runEntry("no-such-experiment")
	if status != 2 || out != "" {
		t.Fatalf("unknown command: exit %d, stdout %q", status, out)
	}
	for _, e := range experiments() {
		if !regexp.MustCompile(`(?m)^  ` + e.name + ` +\S`).MatchString(stderr) {
			t.Errorf("usage does not list %q:\n%s", e.name, stderr)
		}
	}
}

// TestStreamBytesRejected: a ring size the ring buffer cannot take exits
// 2 with a message before any point runs, as an unknown -workload does.
func TestStreamBytesRejected(t *testing.T) {
	for _, n := range []string{"-1", "4", "1000"} {
		out, stderr, status := runEntry("stream", "-quick", "-workload", "silo", "-streambytes", n)
		if status != 2 || out != "" || !strings.Contains(stderr, "-streambytes "+n) {
			t.Errorf("-streambytes %s: exit %d, stdout %q, stderr %q", n, status, out, stderr)
		}
	}
}

// TestResumeReproducesUninterrupted: a journal cut off after its first
// checkpoint resumes to the bytes of the uninterrupted run.
func TestResumeReproducesUninterrupted(t *testing.T) {
	args := []string{"-quick", "-workload", "silo"}
	full, _, _ := runEntry("fig2", args...)

	journal := filepath.Join(t.TempDir(), "run.jsonl")
	journaled, _, _ := runEntry("fig2", append(args, "-journal", journal)...)
	if journaled != full {
		t.Fatal("-journal changed the output")
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(raw, []byte(`"kind":"checkpoint"`))
	if cut < 0 {
		t.Fatal("journal has no checkpoint")
	}
	cut += bytes.IndexByte(raw[cut:], '\n') + 1
	// Keep the first checkpoint and a torn half of the next line, as a
	// kill -9 would leave it.
	if err := os.WriteFile(journal, raw[:min(cut+20, len(raw))], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, stderr, status := runEntry("resume", "-journal", journal)
	if status != 0 || !strings.Contains(stderr, "resume: reqlens fig2") {
		t.Fatalf("resume: exit %d: %s", status, stderr)
	}
	if resumed != full {
		t.Fatal("resumed output differs from the uninterrupted run")
	}
}

// TestDocsListEveryEntry keeps the two hand-written command lists — the
// README's command row and this package's header comment — from drifting
// off the table.
func TestDocsListEveryEntry(t *testing.T) {
	row := regexp.MustCompile("(?m)^\\| `cmd/reqlens` \\|.*$")
	header := regexp.MustCompile(`(?s)\A.*?\npackage main`)
	for file, section := range map[string]*regexp.Regexp{
		filepath.Join("..", "..", "README.md"): row,
		"main.go":                              header,
	} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := section.Find(raw)
		if text == nil {
			t.Fatalf("%s: command list not found", file)
		}
		for _, e := range experiments() {
			if !regexp.MustCompile(`\b` + e.name + `\b`).Match(text) {
				t.Errorf("%s does not mention %q", file, e.name)
			}
		}
	}
}

// basket is the argument lists of bench/'s five workloads
// (bench/workloads.go), each run at -seed 42.
var basket = [][]string{
	{"fig3", "-quick", "-workload", "data-caching", "-parallel", "1"},
	{"fig3", "-quick", "-workload", "data-caching", "-parallel", "1", "-stream"},
	{"waitstates", "-quick", "-workload", "data-caching", "-parallel", "1"},
	{"fleet", "-quick", "-nodes", "16", "-epochs", "16", "-parallel", "2"},
	{"fleet", "-quick", "-nodes", "16", "-scrape-interval", "1ms", "-epochs", "1000", "-parallel", "1"},
}

// BenchmarkBasketProfile runs the basket once per iteration, in-process,
// through the dispatch main calls. Run with -cpuprofile, it writes the
// merged profile the CLI is built with: `make pgo` refreshes
// default.pgo from it.
func BenchmarkBasketProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, args := range basket {
			argv := append(append([]string{}, args[1:]...), "-seed", "42")
			if out, errs, status := runEntry(args[0], argv...); status != 0 || out == "" {
				b.Fatalf("%v: exit %d\n%s", args, status, errs)
			}
		}
	}
}
