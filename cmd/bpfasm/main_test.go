package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites testdata/*.txt instead of comparing against it.
var updateGolden = flag.Bool("update", false, "rewrite cmd/bpfasm/testdata/*.txt")

// run calls what main calls and returns stdout, failing on a nonzero exit.
func run(t *testing.T, name string, tgid int) string {
	t.Helper()
	var out, errb bytes.Buffer
	if status := show(&out, &errb, name, tgid); status != 0 {
		t.Fatalf("bpfasm -prog %s -tgid %d: exit %d: %s", name, tgid, status, errb.String())
	}
	return out.String()
}

// TestGolden pins `bpfasm -prog list` and every entry's listing, at the
// default tgid and at -tgid 0, byte for byte: each program's instruction
// stream, ctx size and per-slot decoded op.
func TestGolden(t *testing.T) {
	cases := map[string]string{"list": run(t, "list", 4242)}
	for _, e := range programs {
		cases[e.name] = run(t, e.name, 4242) + "\n" + run(t, e.name, 0)
	}
	for name, got := range cases {
		path := filepath.Join("testdata", name+".txt")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (go test ./cmd/bpfasm -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("bpfasm -prog %s drifted from %s", name, path)
		}
	}
}

// TestUnknownProgram exits 2 and names the program.
func TestUnknownProgram(t *testing.T) {
	var out, errb bytes.Buffer
	if status := show(&out, &errb, "no-such-prog", 0); status != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", status, out.String())
	}
	if want := fmt.Sprintf("unknown program %q\n", "no-such-prog"); errb.String() != want {
		t.Fatalf("stderr %q, want %q", errb.String(), want)
	}
}
