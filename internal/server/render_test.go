package server

// Regression tests for the read/commit interleavings: a commit landing
// between an explanation's read of the session's (result, epoch) and its
// render, a render that panics, and a write whose session is evicted
// between lookup and submission.

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// chainFacts is a 6-hop company-control chain N0 -> ... -> N6 in /facts
// syntax.
const chainFacts = `Own(\"N0\",\"N1\",0.6). Own(\"N1\",\"N2\",0.7). Own(\"N2\",\"N3\",0.8). ` +
	`Own(\"N3\",\"N4\",0.6). Own(\"N4\",\"N5\",0.7). Own(\"N5\",\"N6\",0.9).`

const chainQuery = `&query=Control(%22N0%22,%22N6%22)`

// boundedClient fails a request that a wedged session would hang.
var boundedClient = &http.Client{Timeout: 10 * time.Second}

// boundedPost returns the response status, or 0 after reporting a
// transport error; it may run off the test goroutine.
func boundedPost(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := boundedClient.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func boundedExplain(t *testing.T, url string) (explainResponse, int) {
	t.Helper()
	resp, err := boundedClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out explainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func openChain(t *testing.T, url string) string {
	t.Helper()
	var rr reasonResponse
	if resp := postJSON(t, url+"/reason", `{"app":"company-control","facts":"`+chainFacts+`"}`, &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status = %d", resp.StatusCode)
	}
	return rr.Session
}

// TestCommitBetweenReadAndRender lands two commits (a hop retracted and
// re-added, so the re-derived facts take new ids in the shared store) right
// after an explanation has read the session's published state. The render
// must still answer from one consistent fixpoint — the one it read — and
// the session must keep committing afterwards.
func TestCommitBetweenReadAndRender(t *testing.T) {
	ts, s := newTestServerFull(t, Options{})
	ref := openChain(t, ts.URL)
	want, code := boundedExplain(t, ts.URL+"/explain?session="+ref+chainQuery)
	if code != http.StatusOK {
		t.Fatalf("reference explain: status = %d", code)
	}

	id := openChain(t, ts.URL)
	// A first commit stands up the session's maintainer, whose store every
	// later published result shares; explaining another fact then builds
	// the published result's proof memo, sized to that store as it is now.
	if code := boundedPost(t, ts.URL+"/facts", `{"session":"`+id+`","add":"Own(\"M0\",\"M1\",0.6)."}`); code != http.StatusOK {
		t.Fatalf("first write: status = %d", code)
	}
	if _, code := boundedExplain(t, ts.URL+"/explain?session="+id+`&query=Control(%22N0%22,%22N5%22)`); code != http.StatusOK {
		t.Fatalf("first explain: status = %d", code)
	}
	hop := `Own(\"N3\",\"N4\",0.6).`
	applied := make(chan struct{}, 16)
	s.testHookApply = func() { applied <- struct{}{} }
	writes := make(chan int, 2)
	var once sync.Once
	s.testHookRender = func() {
		once.Do(func() {
			go func() {
				writes <- boundedPost(t, ts.URL+"/facts", `{"session":"`+id+`","retract":"`+hop+`"}`)
				writes <- boundedPost(t, ts.URL+"/facts", `{"session":"`+id+`","add":"`+hop+`"}`)
			}()
			// Give both commits the chance to land before rendering. A
			// render that holds the session's read lock keeps them out, so
			// the wait times out.
			timeout := time.After(300 * time.Millisecond)
			for n := 0; n < 2; n++ {
				select {
				case <-applied:
				case <-timeout:
					return
				}
			}
		})
	}
	got, code := boundedExplain(t, ts.URL+"/explain?session="+id+chainQuery)
	if code != http.StatusOK {
		t.Fatalf("explain with commits landing before its render: status = %d", code)
	}
	if got.Text != want.Text || strings.Join(got.Constants, ",") != strings.Join(want.Constants, ",") || len(got.ProofSteps) != len(want.ProofSteps) {
		t.Errorf("explain rendered an inconsistent state:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < 2; i++ {
		if code := <-writes; code != http.StatusOK {
			t.Fatalf("toggle write %d: status = %d", i, code)
		}
	}
	if code := boundedPost(t, ts.URL+"/facts", `{"session":"`+id+`","add":"Own(\"N6\",\"N7\",0.7)."}`); code != http.StatusOK {
		t.Fatalf("later write: status = %d", code)
	}
	if _, code := boundedExplain(t, ts.URL+"/explain?session="+id+chainQuery); code != http.StatusOK {
		t.Fatalf("explain after the commits: status = %d", code)
	}
}

// TestRenderPanicReleasesRenderLock: a render that panics answers 500 and
// must not leave the session's render lock held — the next commit, which
// write-locks it, has to go through.
func TestRenderPanicReleasesRenderLock(t *testing.T) {
	ts, s := newTestServerFull(t, Options{Log: log.New(io.Discard, "", 0)})
	id := openChain(t, ts.URL)
	var once sync.Once
	s.testHookRender = func() { once.Do(func() { panic("render failure") }) }
	if _, code := boundedExplain(t, ts.URL+"/explain?session="+id+chainQuery); code != http.StatusInternalServerError {
		t.Fatalf("panicking render: status = %d, want 500", code)
	}
	if code := boundedPost(t, ts.URL+"/facts", `{"session":"`+id+`","add":"Own(\"N6\",\"N7\",0.7)."}`); code != http.StatusOK {
		t.Fatalf("write after a render panic: status = %d, want 200", code)
	}
	if _, code := boundedExplain(t, ts.URL+"/explain?session="+id+chainQuery); code != http.StatusOK {
		t.Fatalf("explain after a render panic: status = %d, want 200", code)
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// TestWriteRetriesAfterEvictionBeforeSubmit evicts a session after /facts
// resolved it but before the write reached its committer. The closed
// committer refuses the write before logging it, so the handler restores the
// session and resubmits: the write commits exactly once.
func TestWriteRetriesAfterEvictionBeforeSubmit(t *testing.T) {
	ts, s := newTestServerFull(t, Options{WALDir: t.TempDir()})
	id := openChain(t, ts.URL)
	var once sync.Once
	s.testHookSubmit = func(sid string) {
		once.Do(func() {
			sess := s.session(sid)
			if !s.sessions.Evict(sid) {
				t.Error("session was not resident")
			}
			sess.cmt.Close()
		})
	}
	var fr factsResponse
	if resp := postJSON(t, ts.URL+"/facts", `{"session":"`+id+`","add":"Own(\"N6\",\"N7\",0.7)."}`, &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("write evicted before submit: status = %d, want 200", resp.StatusCode)
	}
	if fr.Epoch != 1 || !strings.Contains(strings.Join(fr.Answers, " "), "Control(N0, N7)") {
		t.Errorf("write response = %+v, want epoch 1 with Control(N0, N7)", fr)
	}
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"session":"`+id+`"}`, &rr)
	if rr.Epoch != 1 {
		t.Errorf("session epoch after the write = %d, want 1 (applied exactly once)", rr.Epoch)
	}
}
