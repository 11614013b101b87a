package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureCases maps each analyzer to its testdata directory. Every
// directory holds one known-bad and one known-good file; expected
// diagnostics are annotated in-line with `// want "substring"`.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
}{
	{FloatCmp, "floatcmp"},
	{NaNGuard, "nanguard"},
	{LoopCapture, "loopcapture"},
	{ErrCheckLite, "errchecklite"},
	{BufAlias, "bufalias"},
	{UnitCheck, "unitcheck"},
	{DetOrder, "detorder"},
	{GoLeak, "goleak"},
	{PoolCheck, "poolcheck"},
	{NoAlloc, "noalloc"},
	{ObsGuard, "obsguard"},
	{CtxFlow, "ctxflow"},
	{LockCheck, "lockcheck"},
	{NonBlock, "nonblock"},
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantAt struct {
	file string // base name
	line int
	sub  string
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			mod, err := LoadDir(dir, "fixture/"+tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range mod.Pkgs {
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixture does not type-check: %v", terr)
				}
			}

			wants := collectWants(t, dir)
			diags := Run(mod, []*Analyzer{tc.analyzer})

			// Every diagnostic must land exactly on a want line with a
			// matching message, and every want must be hit.
			matched := make([]bool, len(wants))
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				ok := false
				for i, w := range wants {
					if !matched[i] && w.file == base && w.line == d.Pos.Line && strings.Contains(d.Message, w.sub) {
						matched[i] = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic: %v", d)
				}
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.sub)
				}
			}
			// Exact-position gate: the reported (file, line) multiset
			// must equal the annotated one.
			if got, want := positions(diags), wantPositions(wants); got != want {
				t.Errorf("diagnostic positions:\n got  %s\n want %s", got, want)
			}
		})
	}
}

func collectWants(t *testing.T, dir string) []wantAt {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantAt
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, wantAt{file: e.Name(), line: i + 1, sub: m[1]})
			}
		}
	}
	return wants
}

func positions(diags []Diagnostic) string {
	var ps []string
	for _, d := range diags {
		ps = append(ps, fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line))
	}
	sort.Strings(ps)
	return strings.Join(ps, " ")
}

func wantPositions(wants []wantAt) string {
	var ps []string
	for _, w := range wants {
		ps = append(ps, fmt.Sprintf("%s:%d", w.file, w.line))
	}
	sort.Strings(ps)
	return strings.Join(ps, " ")
}
