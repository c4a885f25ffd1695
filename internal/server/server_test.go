package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	return newTestServerOpts(t, Options{})
}

func newTestServerOpts(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s, err := NewWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getBody fetches a URL and returns the raw response bytes and status.
func getBody(t testing.TB, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestAppsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out []appInfo
	resp := getJSON(t, ts.URL+"/apps", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out) != 5 {
		t.Fatalf("apps = %d", len(out))
	}
	names := map[string]bool{}
	for _, a := range out {
		names[a.Name] = true
	}
	if !names["company-control"] || !names["stress-test"] {
		t.Errorf("apps = %v", names)
	}
}

func TestReasonAndExplainFlow(t *testing.T) {
	ts := newTestServer(t)

	var rr reasonResponse
	resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reason status = %d", resp.StatusCode)
	}
	if rr.Session == "" || len(rr.Answers) != 3 {
		t.Fatalf("reason response = %+v", rr)
	}

	var er explainResponse
	resp = getJSON(t, ts.URL+`/explain?session=`+rr.Session+`&query=Default(%22C%22)`, &er)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", resp.StatusCode)
	}
	if er.Fact != "Default(C)" {
		t.Errorf("fact = %q", er.Fact)
	}
	if !er.Complete {
		t.Error("explanation not complete")
	}
	if len(er.ReasoningPaths) != 2 || er.ReasoningPaths[0] != "Π2" || er.ReasoningPaths[1] != "Γ1*" {
		t.Errorf("paths = %v", er.ReasoningPaths)
	}
	if len(er.ProofSteps) != 5 {
		t.Errorf("proof steps = %d", len(er.ProofSteps))
	}
	if !strings.Contains(er.Text, "sum of 2 and 9") {
		t.Errorf("text = %q", er.Text)
	}
}

func TestReasonWithUserFacts(t *testing.T) {
	ts := newTestServer(t)
	var rr reasonResponse
	body := `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6).\nOwn(\"Y\",\"Z\",0.7)."}`
	resp := postJSON(t, ts.URL+"/reason", body, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %+v", resp.StatusCode, rr)
	}
	found := false
	for _, a := range rr.Answers {
		if a == `Control(X, Z)` {
			found = true
		}
	}
	if !found {
		t.Errorf("Control(X,Z) not derived: %v", rr.Answers)
	}
}

func TestPathsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out []pathInfo
	resp := getJSON(t, ts.URL+"/paths?app=company-control", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	ids := map[string]pathInfo{}
	for _, p := range out {
		ids[p.ID] = p
	}
	if p, ok := ids["Π5*"]; !ok || !p.Dashed || p.Kind != "simple path" {
		t.Errorf("Π5* = %+v", ids["Π5*"])
	}
	if p, ok := ids["Γ1"]; !ok || p.Kind != "cycle" {
		t.Errorf("Γ1 = %+v", ids["Γ1"])
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)

	if resp := postJSON(t, ts.URL+"/reason", `{"app":"bogus"}`, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown app status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/reason", `not json`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/explain?session=nope&query=X()", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/paths?app=bogus", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown app paths status = %d", resp.StatusCode)
	}

	// Missing query and unexplainable facts.
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &rr)
	if resp := getJSON(t, ts.URL+"/explain?session="+rr.Session, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/explain?session="+rr.Session+`&query=Default(%22Z%22)`, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("missing fact status = %d", resp.StatusCode)
	}
}

// TestSessionCapacityEnforced is the regression test for the formerly
// unbounded session map: at capacity the least recently used session is
// evicted and stops answering.
func TestSessionCapacityEnforced(t *testing.T) {
	ts := newTestServerOpts(t, Options{MaxSessions: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		var rr reasonResponse
		resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reason %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, rr.Session)
	}
	for i, id := range ids {
		_, code := getBody(t, ts.URL+"/explain?session="+id+`&query=Default(%22C%22)`)
		wantCode := http.StatusOK
		if i < 2 { // the two oldest sessions were evicted
			wantCode = http.StatusNotFound
		}
		if code != wantCode {
			t.Errorf("session %d (%s): status = %d, want %d", i, id, code, wantCode)
		}
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Sessions.Len != 3 || st.Sessions.Cap != 3 || st.Sessions.Evictions != 2 {
		t.Errorf("session stats = %+v", st.Sessions)
	}
}

// TestExplainCacheByteIdentical: repeating one explanation query serves the
// memoized rendering, and the cached response is byte-for-byte the uncached
// one.
func TestExplainCacheByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &rr)
	url := ts.URL + "/explain?session=" + rr.Session + `&query=Default(%22C%22)`
	cold, code := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("cold status = %d", code)
	}
	warm, code := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("warm status = %d", code)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cached response differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Explanations.Hits == 0 || st.Explanations.Len == 0 {
		t.Errorf("explanation cache stats = %+v", st.Explanations)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true}`, &rr)
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true}`, &rr)
	var st statsResponse
	resp := getJSON(t, ts.URL+"/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Sessions.Cap != DefaultMaxSessions || st.Sessions.Len != 2 {
		t.Errorf("sessions = %+v", st.Sessions)
	}
	if len(st.Apps) != 5 {
		t.Fatalf("apps tracked = %d", len(st.Apps))
	}
	cc := st.Apps["company-control"]
	if cc.Results.Cap != DefaultResultCacheSize {
		t.Errorf("result cache cap = %d", cc.Results.Cap)
	}
	// The second identical /reason was served from the result cache.
	if cc.Results.Hits == 0 {
		t.Errorf("result cache stats = %+v", cc.Results)
	}
}

// TestConcurrentServing hammers one server with parallel /reason and
// /explain requests (run under -race): identical payloads must produce
// responses byte-identical to a fresh, cache-cold server's, whether they
// were served from a cache or computed.
func TestConcurrentServing(t *testing.T) {
	// Reference bytes from a cache-cold server: the first rendering of
	// the explanation, and the answer set of the reasoning request.
	ref := newTestServer(t)
	var refReason reasonResponse
	postJSON(t, ref.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &refReason)
	refBody, code := getBody(t, ref.URL+"/explain?session="+refReason.Session+`&query=Default(%22C%22)`)
	if code != http.StatusOK {
		t.Fatalf("reference explain status = %d", code)
	}

	ts := newTestServer(t)
	var shared reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, &shared)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// A fresh session per iteration: the explanation cache
				// misses, the result cache hits after the first run.
				resp, err := http.Post(ts.URL+"/reason", "application/json",
					strings.NewReader(`{"app":"stress-simple","scenario":true}`))
				if err != nil {
					errs <- err.Error()
					return
				}
				var rr reasonResponse
				if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
					resp.Body.Close()
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if fmt.Sprint(rr.Answers) != fmt.Sprint(refReason.Answers) {
					errs <- fmt.Sprintf("answers %v != %v", rr.Answers, refReason.Answers)
					return
				}
				for _, sess := range []string{rr.Session, shared.Session} {
					body, code := getBody(t, ts.URL+"/explain?session="+sess+`&query=Default(%22C%22)`)
					if code != http.StatusOK {
						errs <- fmt.Sprintf("explain status %d", code)
						return
					}
					if !bytes.Equal(body, refBody) {
						errs <- fmt.Sprintf("explain body differs from cold reference:\n%s\nvs\n%s", body, refBody)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	ss := st.Apps["stress-simple"]
	if ss.Results.Hits == 0 {
		t.Errorf("no shared reasoning runs under load: %+v", ss)
	}
	if st.Explanations.Hits == 0 {
		t.Errorf("no explanation cache hits under load: %+v", st.Explanations)
	}
}

func TestSessionsIsolated(t *testing.T) {
	ts := newTestServer(t)
	var r1, r2 reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"P\",\"Q\",0.9)."}`, &r1)
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"R\",\"S\",0.9)."}`, &r2)
	if r1.Session == r2.Session {
		t.Fatal("sessions collide")
	}
	// Session 2 does not know session 1's facts.
	if resp := getJSON(t, ts.URL+"/explain?session="+r2.Session+`&query=Control(%22P%22,%22Q%22)`, nil); resp.StatusCode == http.StatusOK {
		t.Error("session leakage")
	}
}

// TestFactsMutationFlow drives a session through retract and re-add cycles:
// answers must track the mutations, explanations rendered against a stale
// fixpoint must disappear, and the session must keep explaining correctly.
func TestFactsMutationFlow(t *testing.T) {
	ts := newTestServer(t)
	var rr reasonResponse
	body := `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6).\nOwn(\"Y\",\"Z\",0.7)."}`
	postJSON(t, ts.URL+"/reason", body, &rr)
	if rr.Session == "" {
		t.Fatalf("reason response = %+v", rr)
	}
	explainURL := ts.URL + "/explain?session=" + rr.Session + `&query=Control(%22X%22,%22Z%22)`
	if _, code := getBody(t, explainURL); code != http.StatusOK {
		t.Fatalf("pre-mutation explain status = %d", code)
	}

	var fr factsResponse
	resp := postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","retract":"Own(\"Y\",\"Z\",0.7)."}`, &fr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts status = %d: %+v", resp.StatusCode, fr)
	}
	if fr.Epoch == 0 || fr.Stats.Retracted != 1 || fr.Stats.OverDeleted == 0 {
		t.Errorf("facts response = %+v", fr)
	}
	if fr.InvalidatedExplanations == 0 {
		t.Error("mutation removed no cached explanations")
	}
	for _, a := range fr.Answers {
		if a == "Control(X, Z)" {
			t.Error("Control(X, Z) survived retracting its support")
		}
	}
	// The stale explanation is gone; the surviving fact still explains.
	if _, code := getBody(t, explainURL); code != http.StatusUnprocessableEntity {
		t.Fatalf("post-mutation explain status = %d, want 422", code)
	}
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Y%22)`); code != http.StatusOK {
		t.Errorf("surviving fact explain status = %d", code)
	}

	// Re-adding restores the chain and its explanation.
	resp = postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"Own(\"Y\",\"Z\",0.7)."}`, &fr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add status = %d", resp.StatusCode)
	}
	found := false
	for _, a := range fr.Answers {
		if a == "Control(X, Z)" {
			found = true
		}
	}
	if !found {
		t.Errorf("Control(X, Z) not restored: %v", fr.Answers)
	}
	if _, code := getBody(t, explainURL); code != http.StatusOK {
		t.Errorf("restored explain status = %d", code)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Incremental.Updates != 2 || st.Incremental.Invalidations == 0 || st.Incremental.OverDeleted == 0 {
		t.Errorf("incremental stats = %+v", st.Incremental)
	}
}

func TestFactsErrors(t *testing.T) {
	ts := newTestServer(t)
	if resp := postJSON(t, ts.URL+"/facts", `{"session":"nope","add":"A(\"x\")."}`, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/facts", `not json`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	if resp := postJSON(t, ts.URL+"/facts", `{"session":"`+rr.Session+`","add":"not facts"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fact syntax status = %d", resp.StatusCode)
	}
	// Retracting a derived fact is rejected without changing the session.
	if resp := postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","retract":"Control(\"X\",\"Y\")."}`, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("retract derived status = %d", resp.StatusCode)
	}
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Y%22)`); code != http.StatusOK {
		t.Errorf("session unusable after rejected mutation: status = %d", code)
	}
}

// TestConcurrentMutation hammers sessions with parallel /facts and /explain
// requests (meaningful under -race): per-session mutations are serialized,
// reads see a consistent (fixpoint, epoch) pair, and no request may fail
// with anything but the expected not-derived 422 while the chain is down.
func TestConcurrentMutation(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rr reasonResponse
			postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6).\nOwn(\"Y\",\"Z\",0.7)."}`, &rr)
			mut := ts.URL + "/facts"
			explain := ts.URL + "/explain?session=" + rr.Session + `&query=Control(%22X%22,%22Z%22)`
			inner := sync.WaitGroup{}
			inner.Add(1)
			go func() {
				defer inner.Done()
				for i := 0; i < 5; i++ {
					if _, code := getBody(t, explain); code != http.StatusOK && code != http.StatusUnprocessableEntity {
						errs <- fmt.Sprintf("explain status %d", code)
						return
					}
				}
			}()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(mut, "application/json",
					strings.NewReader(`{"session":"`+rr.Session+`","retract":"Own(\"Y\",\"Z\",0.7)."}`))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				resp, err = http.Post(mut, "application/json",
					strings.NewReader(`{"session":"`+rr.Session+`","add":"Own(\"Y\",\"Z\",0.7)."}`))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
			}
			inner.Wait()
			// The session ends with the chain restored.
			if _, code := getBody(t, explain); code != http.StatusOK {
				errs <- fmt.Sprintf("final explain status %d", code)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScenarioSharedAcrossSessions: the parsed bundled scenario is shared by
// every session that asks for it, so a request adding its own facts on top
// must copy it: two sessions extending the scenario with different facts
// keep their own base facts (a session re-reads them when its first write
// stands up its maintainer), and a scenario-only session sees exactly the
// scenario.
func TestScenarioSharedAcrossSessions(t *testing.T) {
	ts := newTestServer(t)
	var plain, q, r, again reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true}`, &plain)
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true,"facts":"Own(\"H\",\"Q\",0.9)."}`, &q)
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true,"facts":"Own(\"H\",\"R\",0.9)."}`, &r)
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","scenario":true}`, &again)
	if again.Facts != plain.Facts || strings.Join(again.Answers, ";") != strings.Join(plain.Answers, ";") {
		t.Errorf("scenario changed after requests extended it: %+v, want %+v", again, plain)
	}
	var fr factsResponse
	if resp := postJSON(t, ts.URL+"/facts", `{"session":"`+q.Session+`","add":"Own(\"Q\",\"S\",0.8)."}`, &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("write: status = %d", resp.StatusCode)
	}
	answers := strings.Join(fr.Answers, ";")
	if !strings.Contains(answers, "Control(H, Q)") || strings.Contains(answers, "Control(H, R)") {
		t.Errorf("session opened with Own(H, Q) answers %s", answers)
	}
}
