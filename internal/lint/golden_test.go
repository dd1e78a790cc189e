package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden runs each analyzer over its fixture module under
// testdata/src/<name> and checks its diagnostics against the fixture's
// `// want "regex"` comments: every diagnostic must be claimed by a want on
// its line, and every want must claim a diagnostic. Several wants on one
// line are written as `// want "a" "b"`.
func TestGolden(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
	}{
		{"lockpair", LockPair},
		{"droppederr", DroppedErr},
		{"fsioonly", FsioOnly},
		{"metricname", MetricName},
		{"stdlibonly", StdlibOnly},
		{"atomicmix", AtomicMix},
		{"goroleak", GoroLeak},
		{"lockorder", LockOrder},
		{"hotalloc", HotAlloc},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			m, err := LoadModule(dir)
			if err != nil {
				t.Fatalf("LoadModule(%s): %v", dir, err)
			}
			for _, p := range m.Pkgs {
				for _, terr := range p.TypeErrors {
					t.Logf("tolerated type error in %s: %v", p.Path, terr)
				}
			}
			diags := Run(m, []*Analyzer{tc.analyzer}, nil)
			wants, err := collectWants(m.Dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if !claimWant(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.claimed {
					t.Errorf("%s:%d: no %s diagnostic matched want %q",
						relTo(m.Dir, w.file), w.line, tc.analyzer.Name, w.re)
				}
			}
		})
	}
}

// want is one expectation parsed from a fixture source line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	claimed bool
}

// claimWant marks the first unclaimed want on the diagnostic's line whose
// regexp matches the message.
func claimWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if w.claimed || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.claimed = true
			return true
		}
	}
	return false
}

// collectWants scans every .go file under dir — including _test.go files,
// where a want could only be satisfied if the loader wrongly parsed them —
// for `// want` comments.
func collectWants(dir string) ([]*want, error) {
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			patterns, err := parseWantPatterns(text[i+len("// want "):])
			if err != nil {
				return fmt.Errorf("%s:%d: %v", path, line, err)
			}
			if len(patterns) == 0 {
				return fmt.Errorf("%s:%d: want comment without a pattern", path, line)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", path, line, p, err)
				}
				wants = append(wants, &want{file: path, line: line, re: re})
			}
		}
		return sc.Err()
	})
	return wants, err
}

// parseWantPatterns reads a sequence of `"..."` or backquoted strings.
func parseWantPatterns(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return out, nil
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			return out, nil // trailing prose after the patterns is allowed
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated %c-quoted want pattern", quote)
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}

func relTo(dir, path string) string {
	if rel, err := filepath.Rel(dir, path); err == nil {
		return rel
	}
	return path
}
