package obs

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpgpunoc/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// fixedViews renders the same three bodies for every scrape.
func fixedViews(_ context.Context, v View) ([]byte, error) {
	switch v {
	case ViewMetrics:
		return []byte("noc_core_instructions 42\n"), nil
	case ViewState:
		return []byte(`{"cycle":7}`), nil
	}
	return []byte(`{"phase":"measure"}`), nil
}

func TestServerEndpoints(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body, _ := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Before views are installed every view endpoint is 503, not an empty
	// 200 a scraper would mistake for data.
	for _, ep := range []string{"/metrics", "/state", "/progress"} {
		if code, _, _ := get(t, base+ep); code != http.StatusServiceUnavailable {
			t.Fatalf("%s before Install = %d, want 503", ep, code)
		}
	}

	srv.Install(fixedViews)

	code, body, ct := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "noc_core_instructions 42") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q lacks exposition version", ct)
	}
	code, body, ct = get(t, base+"/state")
	if code != http.StatusOK || !strings.Contains(body, `"cycle":7`) {
		t.Fatalf("/state = %d %q", code, body)
	}
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("/state content type %q", ct)
	}
	if code, body, _ = get(t, base+"/progress"); code != http.StatusOK || !strings.Contains(body, `"phase":"measure"`) {
		t.Fatalf("/progress = %d %q", code, body)
	}

	defer func() {
		if recover() == nil {
			t.Error("a second Install did not panic")
		}
	}()
	srv.Install(fixedViews)
}

func TestServerBadAddr(t *testing.T) {
	if _, err := NewServer("256.0.0.1:bad"); err == nil {
		t.Fatal("nonsense address accepted")
	}
}

// TestRunViewsHandOff pins the three states of a run's views: before any
// cycle boundary a scrape waits and gives up with its context; while the
// run steps, Answer renders it at the boundary's cycle; after Finish every
// scrape gets the end-of-run render at once.
func TestRunViewsHandOff(t *testing.T) {
	reg := telemetry.NewRegistry()
	cycles := reg.Counter("c", telemetry.Desc{Family: "c_total"})
	state := func() MeshState { return MeshState{Cycle: cycles.Value()} }
	rv := NewRunViews(reg, state, "KMN", 1e9, 2e9) // warmup outlasts the test

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := rv.Render(ctx, ViewState); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("scrape of a run that never steps = %v, want the deadline", err)
	}

	got := make(chan string)
	go func() {
		b, err := rv.Render(context.Background(), ViewProgress)
		if err != nil {
			t.Error(err)
		}
		got <- string(b)
	}()
	var body string
	for cycle := int64(1); body == ""; cycle++ {
		cycles.Add(1)
		rv.Answer(cycle)
		select {
		case body = <-got:
		default:
		}
	}
	if !strings.Contains(body, `"phase":"warmup"`) || !strings.Contains(body, `"benchmark":"KMN"`) {
		t.Errorf("mid-run /progress = %s", body)
	}

	rv.Finish(cycles.Value())
	for v, want := range map[View]string{ViewMetrics: "c_total ", ViewState: `"cycle":`, ViewProgress: `"phase":"done"`} {
		b, err := rv.Render(ctx, v) // ctx has expired: a finished run does not wait
		if err != nil || !strings.Contains(string(b), want) {
			t.Errorf("view %d after Finish = %q, %v; want %q", v, b, err, want)
		}
	}
}
