package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testWorkload is a small corpus with a fixed plan whose ops all go to
// edge 0: holder fetches of every shape and one peer hop.
func testWorkload() *workload {
	return &workload{
		name: "test", datasets: 6, datasetBytes: 64 * kib,
		round: 4, rounds: 1,
		plan: func(w *workload, _ *rand.Rand, _ []int) []op {
			return []op{
				{kind: opWhole, ds: 0, node: 0, holder: true, resolve: true},
				{kind: opRange, ds: 3, node: 0, holder: true, parts: []span{{1000, 20000}}},
				{kind: opMulti, ds: 0, node: 0, holder: true, parts: []span{{10, 3000}, {40000, 5000}}},
				{kind: opWhole, ds: 1, node: 0},
			}
		},
	}
}

// doctor alters what passes between the clients and edge 0.
type doctor struct {
	req  func(*http.Request)
	resp func(*http.Response)
}

// runThrough starts a cluster, routes every request for edge 0 through
// a proxy that applies d, runs the plan once, and returns the phase.
func runThrough(t *testing.T, d doctor) *phaseResult {
	t.Helper()
	w := testWorkload()
	cp := newCorpus(w)
	plan, err := buildPlan(w, 1, cp.holders)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(w, cp, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	target, err := url.Parse(e.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	direct := proxy.Director
	proxy.Director = func(req *http.Request) {
		direct(req)
		if d.req != nil {
			d.req(req)
		}
	}
	proxy.ModifyResponse = func(resp *http.Response) error {
		if d.resp != nil && isFetch.MatchString(resp.Request.URL.Path) {
			d.resp(resp)
		}
		return nil
	}
	front := httptest.NewServer(proxy)
	defer front.Close()
	e.urls[0] = front.URL
	r := &runner{e: e, plan: plan, clients: 1, epoch: time.Now()}
	ph, err := r.phase(time.Minute, int64(len(plan)), false)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted() != int64(len(plan)) {
		t.Fatalf("attempted %d ops, want %d", ph.attempted(), len(plan))
	}
	return ph
}

// isFetch matches payload responses, not resolves.
var isFetch = regexp.MustCompile(`^/v1/fetch/`)

func TestCleanRunPassesAndReconciles(t *testing.T) {
	ph := runThrough(t, doctor{})
	if ph.failed() != 0 || ph.err != nil {
		t.Fatalf("clean run: %d failed ops, err %v", ph.failed(), ph.err)
	}
	if !ph.result().Correct {
		t.Fatal("clean run reported incorrect")
	}
}

// Each doctored run must count every op it touched as failed and mark
// the run incorrect.
func TestDoctoredResponsesFailOps(t *testing.T) {
	cases := []struct {
		name   string
		d      doctor
		failed int64
	}{
		{"flipped byte", doctor{resp: func(resp *http.Response) {
			resp.Body = &flipAt{r: resp.Body, at: resp.ContentLength / 2}
		}}, 4},
		// The body ends one byte early, under the full Content-Length.
		{"truncated body", doctor{resp: func(resp *http.Response) {
			resp.Body = struct {
				io.Reader
				io.Closer
			}{io.LimitReader(resp.Body, resp.ContentLength-1), resp.Body}
		}}, 4},
		// The body ends one byte early and says so.
		{"short Content-Length", doctor{resp: func(resp *http.Response) {
			resp.Body = struct {
				io.Reader
				io.Closer
			}{io.LimitReader(resp.Body, resp.ContentLength-1), resp.Body}
			resp.ContentLength--
			resp.Header.Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
		}}, 4},
		// The edge is asked for the range one byte later, and its answer
		// is relabelled as the range the client asked for: only the
		// bytes are wrong. Only the single-range op is shifted.
		{"wrong range", doctor{
			req: func(req *http.Request) {
				var a, b int64
				if _, err := fmt.Sscanf(req.Header.Get("Range"), "bytes=%d-%d", &a, &b); err == nil &&
					!strings.Contains(req.Header.Get("Range"), ",") {
					req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", a+1, b+1))
				}
			},
			resp: func(resp *http.Response) {
				var a, b, total int64
				if _, err := fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes %d-%d/%d", &a, &b, &total); err == nil {
					resp.Header.Set("Content-Range", contentRange(a-1, b-a+1, total))
				}
			},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ph := runThrough(t, tc.d)
			if got := ph.failed(); got != tc.failed {
				t.Fatalf("%d failed ops, want %d (first error: %v)", got, tc.failed, ph.err)
			}
			if ph.result().Correct {
				t.Fatal("doctored run reported correct")
			}
		})
	}
}

type flipAt struct {
	r   io.ReadCloser
	at  int64
	off int64
}

func (f *flipAt) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if f.at >= f.off && f.at < f.off+int64(n) {
		p[f.at-f.off] ^= 0xff
	}
	f.off += int64(n)
	return n, err
}

func (f *flipAt) Close() error { return f.r.Close() }
