package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tm3270/internal/service"
	"tm3270/internal/telemetry"
)

// TestRequestIDPropagation: the server mints a request ID (or honors a
// client-sent one) and the same ID appears in the response header, the
// run reply body, and error bodies — the join key across logs, spans
// and metrics.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}

	// Minted: the reply body carries the ID from the response header.
	body, _ := json.Marshal(service.RunRequest{})
	resp, err := ts.Client().Post(ts.URL+"/sessions/"+info.ID+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep service.RunReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hdr := resp.Header.Get(service.RequestIDHeader)
	if hdr == "" || rep.RequestID != hdr {
		t.Errorf("reply request ID %q != header %q (want non-empty match)", rep.RequestID, hdr)
	}

	// Honored: a caller-supplied ID is kept verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sessions/"+info.ID, nil)
	req.Header.Set(service.RequestIDHeader, "req-caller-7")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(service.RequestIDHeader); got != "req-caller-7" {
		t.Errorf("caller-supplied request ID not honored: %q", got)
	}

	// Errors: the client surfaces the failed request's ID so the
	// failure stays joinable to the server's log line and span tree.
	_, err = c.Session(ctx, "no-such-session")
	ae, ok := err.(*service.APIError)
	if !ok || ae.RequestID == "" {
		t.Fatalf("error without request ID: %v", err)
	}
	if !strings.Contains(ae.Error(), ae.RequestID) {
		t.Errorf("APIError.Error() %q does not mention request %s", ae.Error(), ae.RequestID)
	}
}

// wellFormedSpan asserts children nest inside their parent, recursively.
func wellFormedSpan(t *testing.T, j *telemetry.SpanJSON) {
	t.Helper()
	for _, c := range j.Children {
		if c.StartUS < j.StartUS || c.StartUS+c.DurUS > j.StartUS+j.DurUS {
			t.Errorf("child %q [%d,+%d] escapes parent %q [%d,+%d]",
				c.Name, c.StartUS, c.DurUS, j.Name, j.StartUS, j.DurUS)
		}
		wellFormedSpan(t, c)
	}
}

// spanNames flattens the tree's names for containment checks.
func spanNames(j *telemetry.SpanJSON, out map[string]bool) {
	out[j.Name] = true
	for _, c := range j.Children {
		spanNames(c, out)
	}
}

// TestRunTraceEndpoint: each run retains its span tree and final stall
// counters, served back on GET /sessions/{id}/runs/{run}/trace.
func TestRunTraceEndpoint(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(ctx, info.ID, service.RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusOK {
		t.Fatalf("run status = %q", rep.Status)
	}

	rt, err := c.RunTrace(ctx, info.ID, rep.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Session != info.ID || rt.Seq != rep.Seq || rt.Status != service.StatusOK {
		t.Errorf("trace header = %+v, want session %s seq %d ok", rt, info.ID, rep.Seq)
	}
	if rt.RequestID != rep.RequestID {
		t.Errorf("trace request ID %q != reply's %q", rt.RequestID, rep.RequestID)
	}
	if rt.Span == nil {
		t.Fatal("trace has no span tree")
	}
	wellFormedSpan(t, rt.Span)
	names := map[string]bool{}
	spanNames(rt.Span, names)
	for _, want := range []string{"runs", "admit", "compile", "execute"} {
		if !names[want] {
			t.Errorf("span tree missing stage %q (have %v)", want, names)
		}
	}
	// The execute span carries the cycle model's stall attribution, and
	// the final counter snapshot rides along even when the run itself
	// didn't request telemetry.
	if len(rt.Counters) == 0 {
		t.Error("trace has no final counter snapshot")
	}

	if _, err := c.RunTrace(ctx, info.ID, 9999); err == nil {
		t.Error("unknown run seq did not 404")
	}
	if _, err := c.RunTrace(ctx, "no-such-session", 1); err == nil {
		t.Error("unknown session did not 404")
	}
}

// spanNamed finds the first span of the given name, depth first.
func spanNamed(j *telemetry.SpanJSON, name string) *telemetry.SpanJSON {
	if j.Name == name {
		return j
	}
	for _, c := range j.Children {
		if f := spanNamed(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestVerifySpan: a verify session's run trace times the static
// verifier as a "verify" child of "execute", annotated with the
// diagnostic count; a session without verify has no such span.
func TestVerifySpan(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	for _, verify := range []bool{true, false} {
		info, err := c.CreateSession(ctx, service.CreateSessionRequest{
			Workload: "memcpy", Options: service.SessionOptions{Verify: verify}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(ctx, info.ID, service.RunRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != service.StatusOK {
			t.Fatalf("verify=%t: run status = %q (%s)", verify, rep.Status, rep.Error)
		}
		rt, err := c.RunTrace(ctx, info.ID, rep.Seq)
		if err != nil {
			t.Fatal(err)
		}
		wellFormedSpan(t, rt.Span)
		exec := spanNamed(rt.Span, "execute")
		if exec == nil {
			t.Fatalf("verify=%t: trace has no execute span", verify)
		}
		v := spanNamed(rt.Span, "verify")
		switch {
		case !verify && v != nil:
			t.Errorf("session without verify has a verify span: %+v", v)
		case verify && v == nil:
			t.Errorf("verify session's trace has no verify span")
		case verify && spanNamed(exec, "verify") != v:
			t.Errorf("verify span is not under execute")
		case verify && v.Args["diags"] != float64(0):
			t.Errorf("verify span diags = %v, want 0 for a clean binary", v.Args["diags"])
		}
	}
}

// TestSpanWindowKeepsNewest: past its cap the server's span window
// evicts the oldest request trees, so a long-lived server keeps a
// bounded, current window.
func TestSpanWindowKeepsNewest(t *testing.T) {
	const spanCap = 4
	srv, ts := newServer(t, service.Config{SpanCap: spanCap})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memset"})
	if err != nil {
		t.Fatal(err)
	}
	const runs = spanCap + 3
	var last service.RunReply
	for i := 0; i < runs; i++ {
		rep, err := c.Run(ctx, info.ID, service.RunRequest{})
		if err != nil {
			t.Fatal(err)
		}
		last = *rep
	}
	sp := srv.Spans()
	if sp.Len() != spanCap {
		t.Errorf("span window holds %d trees, want the cap %d", sp.Len(), spanCap)
	}
	// One tree for the create request, one per run.
	if got, want := sp.Dropped(), int64(1+runs-spanCap); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	trees := sp.Trees()
	newest := trees[len(trees)-1].JSON(sp.Epoch())
	if newest.Args["request_id"] != last.RequestID {
		t.Errorf("newest retained tree is request %v, want the last run's %s",
			newest.Args["request_id"], last.RequestID)
	}
}

// TestMetricsHistograms: /metrics serves well-formed histograms and
// every per-stage latency histogram observes exactly once per admitted
// run — the bucket sums reconcile against the admission counters.
func TestMetricsHistograms(t *testing.T) {
	srv, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := c.Run(ctx, info.ID, service.RunRequest{Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	admitted := m.Counters["service.runs.admitted"]
	if admitted != runs {
		t.Fatalf("admitted = %d, want %d", admitted, runs)
	}
	stages := 0
	for name, h := range m.Histograms {
		if len(h.Counts) != len(h.BoundsUS)+1 {
			t.Errorf("%s: %d buckets for %d bounds", name, len(h.Counts), len(h.BoundsUS))
		}
		var sum int64
		for _, n := range h.Counts {
			sum += n
		}
		if sum != h.Count {
			t.Errorf("%s: bucket sum %d != count %d", name, sum, h.Count)
		}
		if strings.HasPrefix(name, "service.latency.stage.") {
			stages++
			if h.Count != admitted {
				t.Errorf("%s: count %d != admitted %d", name, h.Count, admitted)
			}
		}
	}
	if stages != 6 {
		t.Errorf("stage histograms = %d, want 6 (admit, queue, compile, execute, encode, run)", stages)
	}
	// Route histograms exist and saw traffic.
	if h, ok := m.Histograms["service.latency.route.runs"]; !ok || h.Count != runs {
		t.Errorf("route.runs histogram = %+v, want count %d", m.Histograms["service.latency.route.runs"], runs)
	}

	// Every request tree landed in the serving window for trace export.
	if srv.Spans().Len() == 0 {
		t.Error("no request trees recorded")
	}
	var buf bytes.Buffer
	if err := srv.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph": "X"`)) && !bytes.Contains(buf.Bytes(), []byte(`"ph":"X"`)) {
		t.Errorf("trace export has no complete events:\n%.400s", buf.String())
	}
}
