package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFiles writes files (path → contents, plus a go.mod if absent) into a
// fresh temp module and loads it.
func loadFiles(t *testing.T, files map[string]string) *Module {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module fixture/neg\n\ngo 1.22\n"
	}
	for name, src := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return m
}

const relationDecl = `
type Relation struct{ n int }

func (r *Relation) BeginRead() {}
func (r *Relation) EndRead()   {}
`

// TestNegatives drives each analyzer over sources that must NOT trip it (or
// must trip it an exact number of times), covering the idioms the analyzers
// promise to tolerate.
func TestNegatives(t *testing.T) {
	tests := []struct {
		name     string
		analyzer *Analyzer
		files    map[string]string
		// wantMsgs is matched 1:1 (substring) against the diagnostics; empty
		// means the source must be clean.
		wantMsgs []string
	}{
		{
			name:     "lockpair deferred unlock is balanced",
			analyzer: LockPair,
			files: map[string]string{"a.go": `package neg
` + relationDecl + `
func f(r *Relation) int {
	r.BeginRead()
	defer r.EndRead()
	return r.n
}
`},
		},
		{
			name:     "lockpair deferred wrapper literal is credited",
			analyzer: LockPair,
			files: map[string]string{"a.go": `package neg
` + relationDecl + `
func f(r *Relation) int {
	r.BeginRead()
	defer func() { r.EndRead() }()
	return r.n
}
`},
		},
		{
			name:     "lockpair unlock before every return is balanced",
			analyzer: LockPair,
			files: map[string]string{"a.go": `package neg
` + relationDecl + `
func f(r *Relation, early bool) int {
	r.BeginRead()
	if early {
		r.EndRead()
		return 0
	}
	n := r.n
	r.EndRead()
	return n
}
`},
		},
		{
			name:     "lockpair path that panics needs no unlock",
			analyzer: LockPair,
			files: map[string]string{"a.go": `package neg
` + relationDecl + `
func f(r *Relation, bad bool) {
	r.BeginRead()
	defer r.EndRead()
	if bad {
		panic("no unlock needed past here")
	}
}
`},
		},
		{
			name:     "droppederr pragma with a reason suppresses",
			analyzer: DroppedErr,
			files: map[string]string{"a.go": `package neg

import "errors"

func mayFail() error { return errors.New("x") }

func f() {
	_ = mayFail() //grovevet:ignore droppederr the test acknowledges this discard
}
`},
		},
		{
			name:     "droppederr bare pragma suppresses nothing and is itself flagged",
			analyzer: DroppedErr,
			files: map[string]string{"a.go": `package neg

import "errors"

func mayFail() error { return errors.New("x") }

func f() {
	_ = mayFail() //grovevet:ignore
}
`},
			wantMsgs: []string{
				"error discarded into _",
				"pragma needs an explanation",
			},
		},
		{
			name:     "droppederr violations in _test.go files are never loaded",
			analyzer: DroppedErr,
			files: map[string]string{
				"a.go": `package neg

import "errors"

func mayFail() error { return errors.New("x") }
`,
				"a_test.go": `package neg

func init() {
	_ = mayFail()
	mayFail()
}
`,
			},
		},
		{
			name:     "fsioonly fsio-mediated operations pass",
			analyzer: FsioOnly,
			files: map[string]string{"a.go": `package neg

import "os"

type FS interface {
	Create(string) (*os.File, error)
	MkdirAll(string, os.FileMode) error
}

func save(fs FS, dir string) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := fs.Create(dir + "/data.bin")
	if err != nil {
		return err
	}
	return f.Close()
}

func notExist(err error) bool { return os.IsNotExist(err) }
`},
		},
		{
			name:     "fsioonly direct os call is reported once",
			analyzer: FsioOnly,
			files: map[string]string{"a.go": `package neg

import "os"

func nuke(dir string) error { return os.RemoveAll(dir) }
`},
			wantMsgs: []string{"os.RemoveAll bypasses the fsio.FS abstraction"},
		},
		{
			name:     "stdlibonly stdlib and module-local imports pass",
			analyzer: StdlibOnly,
			files: map[string]string{
				"a.go": `package neg

import (
	"fmt"

	"fixture/neg/sub"
)

var _ = fmt.Sprint(sub.X)
`,
				"sub/sub.go": `package sub

var X = 1
`,
			},
		},
		{
			name:     "atomicmix uniformly atomic access passes",
			analyzer: AtomicMix,
			files: map[string]string{"a.go": `package neg

import "sync/atomic"

type s struct{ hits int64 }

func bump(v *s) { atomic.AddInt64(&v.hits, 1) }

func read(v *s) int64 { return atomic.LoadInt64(&v.hits) }
`},
		},
		{
			name:     "goroleak channel-joined workers with recovering helper pass",
			analyzer: GoroLeak,
			files: map[string]string{"a.go": `package neg

import "sync"

func safeCall(f func()) {
	defer func() { recover() }()
	f()
}

func pool(n int, jobs chan func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				safeCall(j)
			}
		}()
	}
	wg.Wait()
}
`},
		},
		{
			name:     "goroleak pragma acknowledges a detached goroutine",
			analyzer: GoroLeak,
			files: map[string]string{"a.go": `package neg

func serve(accept func() bool) {
	//grovevet:ignore goroleak accept loop exits when the listener closes; a panic here must crash loudly
	go func() {
		for accept() {
		}
	}()
}
`},
		},
		{
			name:     "lockorder consistent global order passes",
			analyzer: LockOrder,
			files: map[string]string{"a.go": `package neg

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func f(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
}

func g(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
`},
		},
		{
			name:     "lockorder local mutexes and released locks pass",
			analyzer: LockOrder,
			files: map[string]string{"a.go": `package neg

import "sync"

func h(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
	ch <- 1
}
`},
		},
		{
			name:     "hotalloc unannotated module never invokes the toolchain",
			analyzer: HotAlloc,
			files: map[string]string{"a.go": `package neg

func box(n int) *int { return &n }
`},
		},
		{
			name:     "metricname conforming registrations pass",
			analyzer: MetricName,
			files: map[string]string{"a.go": `package neg

type Registry struct{}

func (r *Registry) Counter(name, help string) int { return 0 }
func (r *Registry) Gauge(name, help string) int   { return 0 }

func f(r *Registry) {
	r.Counter("grove_ops_total", "ok")
	r.Gauge("grove_queue_depth", "ok")
}
`},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := loadFiles(t, tc.files)
			diags := Run(m, []*Analyzer{tc.analyzer}, nil)
			if len(diags) != len(tc.wantMsgs) {
				for _, d := range diags {
					t.Logf("got: %s", d)
				}
				t.Fatalf("got %d diagnostics, want %d", len(diags), len(tc.wantMsgs))
			}
			for i, msg := range tc.wantMsgs {
				if !strings.Contains(diags[i].Message, msg) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, msg)
				}
			}
		})
	}
}
