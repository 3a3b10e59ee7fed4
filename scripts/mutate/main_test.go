package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runTiny mutates file of testdata/tiny and checks each mutant's row.
func runTiny(t *testing.T, file string, want ...string) []*mutant {
	t.Helper()
	ms, err := run("testdata/tiny", file, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range ms {
		got = append(got, m.String())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("mutants:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	return ms
}

// TestTinyPackage mutates testdata/tiny, whose three mutants are one of
// each kind, and requires the target to be untouched afterwards.
func TestTinyPackage(t *testing.T) {
	const target = "testdata/tiny/tiny.go"
	before, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	ms := runTiny(t, "tiny.go",
		"tiny.go:9:2 if→!if: killed by TestMax",
		"tiny.go:9:7 >→>=: SURVIVED",
		"tiny.go:16:47 +→-: invalid")
	if score := score("tiny.go", ms); score != "tiny.go: 1/2 killed (50.0 %), 1 invalid" {
		t.Errorf("score: %s", score)
	}
	// A listed mutant that is now killed names its killer; an annotated
	// survivor keeps its note.
	notes := map[string]string{"tiny.go:9:2 if→!if": "", "tiny.go:9:7 >→>=": "equivalent: a == b returns b"}
	if open := annotate(notes, []string{"tiny.go"}, ms); len(open) > 0 {
		t.Errorf("open survivors: %v", open)
	}
	if got := render(notes); !strings.HasSuffix(got, "\ntiny.go:9:2 if→!if\tkilled: TestMax\ntiny.go:9:7 >→>=\tequivalent: a == b returns b\n") {
		t.Errorf("survivors file:\n%s", got)
	}
	if after, err := os.ReadFile(target); err != nil || !bytes.Equal(before, after) {
		t.Errorf("the run changed %s (%v)", target, err)
	}
}

// TestPanicReruns mutates testdata/tiny's At, whose mutants panic
// TestAtEnd: the kill row still names TestAtRecovers, which runs after
// it and fails without panicking, and the rerun runs only what the
// panic cut off, so each top-level test reports once across the rounds.
func TestPanicReruns(t *testing.T) {
	ms := runTiny(t, "at.go",
		"at.go:6:2 if→!if: killed by TestAtEnd TestAtRecovers",
		"at.go:6:7 <→<=: killed by TestAtEnd TestAtRecovers")
	for _, m := range ms {
		ran := slices.Clone(m.ran)
		slices.Sort(ran)
		if want := []string{"TestAtEnd", "TestAtRecovers", "TestMax", "TestSpin"}; !slices.Equal(ran, want) {
			t.Errorf("%s: tests reported %v across the rounds, want each of %v once", m.key, m.ran, want)
		}
	}
}

// TestHangNamesItsTest mutates testdata/tiny's Spin, whose + mutant
// never returns: the binary's -test.timeout ends it, not the deadline
// on the whole command, and the kill row names the test it hung in.
func TestHangNamesItsTest(t *testing.T) {
	runTiny(t, "spin.go", "spin.go:5:8 !=→==: killed by TestSpin", "spin.go:6:9 -→+: killed by TestSpin")
}

// TestSurvivorsNameSites fails on a testdata/survivors.txt entry that
// names no mutation site of the tree: its file, line, column and
// operators must be a site run would mutate today, or its note has
// gone stale.
func TestSurvivorsNameSites(t *testing.T) {
	root := filepath.Join("..", "..")
	notes, err := readNotes(filepath.Join(root, survivorsFile))
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for key := range notes {
		entries = append(entries, key)
	}
	slices.Sort(entries)
	keys := map[string]map[string]bool{} // by file, its sites' keys
	for _, key := range entries {
		file, _, _ := strings.Cut(key, ":")
		if keys[file] == nil {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join(root, file), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			keys[file] = map[string]bool{}
			for _, s := range sites(f) {
				keys[file][s.key(fset, file)] = true
			}
		}
		if !keys[file][key] {
			t.Errorf("%s names no mutation site: rerun go run ./scripts/mutate %s", key, file)
		}
	}
}
