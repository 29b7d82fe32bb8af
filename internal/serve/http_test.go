package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPRunAndStats(t *testing.T) {
	s := New(Options{Slots: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Cold run.
	resp, body := postJSON(t, srv, "/run", `{"id":"a","nx":64,"nr":24,"steps":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cold JobResult
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if !cold.OK || cold.Cached || cold.ID != "a" || cold.MomentumSHA256 == "" {
		t.Fatalf("cold result: %+v", cold)
	}

	// Duplicate must be a cache hit with the same checksum.
	_, body = postJSON(t, srv, "/run", `{"id":"b","nx":64,"nr":24,"steps":4}`)
	var hit JobResult
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.OK || !hit.Cached || hit.Key != cold.Key || hit.MomentumSHA256 != cold.MomentumSHA256 {
		t.Fatalf("hit result: %+v (cold %+v)", hit, cold)
	}

	// Batch: duplicates and one bad job, results in submission order.
	_, body = postJSON(t, srv, "/batch",
		`[{"id":"c","nx":64,"nr":24,"steps":4},{"id":"d","backend":"nonesuch","nx":64,"nr":24,"steps":4},{"id":"e","scenario":"channel","nx":64,"nr":16,"steps":3}]`)
	var batch []JobResult
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || batch[0].ID != "c" || batch[1].ID != "d" || batch[2].ID != "e" {
		t.Fatalf("batch order: %+v", batch)
	}
	if !batch[0].Cached || !batch[0].OK {
		t.Fatalf("batch duplicate not served from cache: %+v", batch[0])
	}
	if batch[1].OK || batch[1].Error == "" {
		t.Fatalf("bad job not reported: %+v", batch[1])
	}
	if !batch[2].OK || batch[2].Scenario != "channel" {
		t.Fatalf("channel job: %+v", batch[2])
	}

	// Stats reflect the traffic.
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 2 || st.CacheHits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Queue depth, shed count, and the per-scenario traffic mix: three
	// jet jobs served (one cold, two cached), one channel job, nothing
	// queued or shed.
	if st.Queued != 0 || st.Running != 0 || st.Rejected != 0 {
		t.Fatalf("occupancy stats: %+v", st)
	}
	if st.PerScenario["jet"] != 3 || st.PerScenario["channel"] != 1 {
		t.Fatalf("per-scenario stats: %+v", st.PerScenario)
	}

	// Malformed JSON is a client error.
	resp, _ = postJSON(t, srv, "/run", `{"nx":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed job: status %d", resp.StatusCode)
	}

	// Liveness.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestHTTPShedding(t *testing.T) {
	s := New(Options{Slots: 1})
	s.Close() // closed scheduler sheds everything with 503
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv, "/run", `{"nx":64,"nr":24,"steps":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Error == "" {
		t.Fatalf("shed result: %+v", res)
	}
}

// TestHTTPNonFiniteDefect serves a parareal job whose coarse propagator
// diverges (the unexcited Re~500 jet at 128x48 coarsens to 64x24), so
// its defect is NaN while the fine result is exact at K iterations.
// Both endpoints must answer a decodable 200 that marks the defect
// non-finite, with the momentum checksum of a direct Submit.
func TestHTTPNonFiniteDefect(t *testing.T) {
	const job = `{"backend":"serial","nx":128,"nr":48,"reynolds":500,"eps":0,"steps":1400,"time_slices":2}`
	var j Job
	if err := json.Unmarshal([]byte(job), &j); err != nil {
		t.Fatal(err)
	}
	direct := New(Options{Slots: 2})
	defer direct.Close()
	rep, err := direct.Submit(j.Config())
	if err != nil {
		t.Fatal(err)
	}
	want := MomentumChecksum(rep.Result.Momentum)
	if !math.IsNaN(rep.Result.Defect) {
		t.Fatalf("defect %g: the job no longer exercises a non-finite defect", rep.Result.Defect)
	}

	s := New(Options{Slots: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	check := func(where string, status int, body []byte, res JobResult) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", where, status, body)
		}
		if !res.OK || !math.IsNaN(float64(res.Defect)) || !bytes.Contains(body, []byte(`"defect":"NaN"`)) {
			t.Errorf("%s: defect not marked non-finite: %s", where, body)
		}
		if res.MomentumSHA256 != want {
			t.Errorf("%s: momentum checksum %s, direct Submit %s", where, res.MomentumSHA256, want)
		}
	}
	resp, body := postJSON(t, srv, "/run", job)
	var one JobResult
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatalf("/run body %q: %v", body, err)
	}
	check("/run", resp.StatusCode, body, one)
	resp, body = postJSON(t, srv, "/batch", "["+job+","+job+"]")
	var batch []JobResult
	if err := json.Unmarshal(body, &batch); err != nil || len(batch) != 2 {
		t.Fatalf("/batch body %q: %v", body, err)
	}
	for _, res := range batch {
		check("/batch", resp.StatusCode, body, res)
	}
}

// TestWriteJSONUnencodable pins the fallback for a reply JSON cannot
// carry: a 500 with a JSON error body, never a 200 with no body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	var e struct{ Error string }
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.Bytes())
	}
}

func TestFloatJSONRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5e-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("%g: %v", v, err)
		}
		var got Float
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(float64(got))) {
			t.Errorf("%g -> %s -> %g", v, b, got)
		}
	}
	var r JobResult
	if err := json.Unmarshal([]byte(`{"defect":null}`), &r); err != nil || r.Defect != 0 {
		t.Errorf("null defect: %v, %g", err, r.Defect)
	}
	if err := json.Unmarshal([]byte(`{"defect":"x"}`), &r); err == nil {
		t.Error("defect \"x\" decoded without an error")
	}
}
