package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// oracleSample is how many sessions the oracle checks on the churn-shaped
// workloads: up to written of those with committed writes plus others of
// the rest. Maintain checks every session.
const (
	oracleWritten = 96
	oracleOthers  = 32
)

// oracleDeadline bounds each of the oracle's requests.
const oracleDeadline = 10 * time.Second

// oracleCheck compares sampled sessions with a sequential oracle: a fresh
// pipeline, without caches, chasing the benchmark's own record of each
// session's committed base facts. The session's /reason answers (as a
// sorted list) and its /explain text must match the oracle's byte for
// byte. Lost sessions are skipped. It returns how many sessions it
// compared and a description of each mismatch.
func (d *analysts) oracleCheck(ctx context.Context, seed int64) (int, []string, error) {
	a, err := apps.ByName(appName)
	if err != nil {
		return 0, nil, err
	}
	pipe, err := a.Pipeline(core.Config{})
	if err != nil {
		return 0, nil, err
	}
	var sample []*sessState
	if d.wl.chain {
		sample = d.sessions
	} else {
		var written, others []*sessState
		for _, st := range d.sessions {
			if st.writes > 0 {
				written = append(written, st)
			} else {
				others = append(others, st)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		sample = append(written[:min(len(written), oracleWritten)], others[:min(len(others), oracleOthers)]...)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	checked := 0
	var mismatches []string
	for _, st := range sample {
		base, lost := st.snapshotBase()
		if lost {
			continue
		}
		res, err := pipe.ReasonContext(ctx, base...)
		if err != nil {
			return checked, mismatches, fmt.Errorf("oracle chase of %s: %w", st.spec.id, err)
		}
		var got reasonReply
		body, _ := json.Marshal(map[string]string{"session": st.spec.id})
		if err := d.fetch(ctx, http.MethodPost, "/reason", body, &got); err != nil {
			// Unanswered (a session wedged after its last timed request):
			// it is lost, not wrong.
			st.markLost()
			continue
		}
		sort.Strings(got.Answers)
		if g, w := strings.Join(got.Answers, "\n"), answerText(res); g != w {
			mismatches = append(mismatches, fmt.Sprintf("oracle: session %s answers differ:\n server %q\n oracle %q", st.spec.id, g, w))
		}
		queries := []string{churnQuery}
		if d.wl.chain {
			g := st.derivablePrefix()
			queries = []string{chainQuery(st.spec.hops, g), chainQuery(st.spec.hops, 1+rng.Intn(g))}
		}
		for _, q := range queries {
			e, err := pipe.ExplainQuery(res, q)
			if err != nil {
				return checked, mismatches, fmt.Errorf("oracle explain of %s %s: %w", st.spec.id, q, err)
			}
			var got explainReply
			path := "/explain?session=" + url.QueryEscape(st.spec.id) + "&query=" + url.QueryEscape(q)
			if err := d.fetch(ctx, http.MethodGet, path, nil, &got); err != nil {
				mismatches = append(mismatches, fmt.Sprintf("oracle: session %s %s: %v", st.spec.id, q, err))
				continue
			}
			if got.Text != e.Text {
				mismatches = append(mismatches, fmt.Sprintf("oracle: session %s %s explanation differs:\n server %q\n oracle %q", st.spec.id, q, got.Text, e.Text))
			}
		}
		checked++
	}
	return checked, mismatches, nil
}

// fetch performs one request outside the measured loop and decodes a 200
// answer.
func (d *analysts) fetch(ctx context.Context, method, path string, body []byte, v any) error {
	ctx, cancel := context.WithTimeout(ctx, oracleDeadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}
