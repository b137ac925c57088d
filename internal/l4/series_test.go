package l4

import (
	"flag"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/topology"
	"repro/internal/treenet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_series.golden from this build")

// TestMetricsSeriesGolden pins the /v1/metrics catalogue of a fully armed
// Layer-4 switch (tree with failure detection, health, tracing, flight
// recorder, control plane, durable state): the sorted # TYPE lines must
// equal the checked-in list, recorded before the enforcement node moved out
// of this package. Dashboards and the reference benchmark key on these
// names.
func TestMetricsSeriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.5, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 20 * time.Millisecond, Logger: obs.Nop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bk, err := NewBackend("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := NewRedirector(Config{
		Engine:   eng,
		Services: []ServiceSpec{{Principal: a, Addr: "127.0.0.1:0"}},
		Backends: map[agreement.Principal][]string{sp: {bk.Addr()}},
		Tree: &treenet.Spec{
			NodeID: 0, FailureTimeout: time.Second,
			Topology: &topology.Spec{Regions: []topology.Region{{Name: "flat", Members: []int{0}}}},
		},
		Health:  &health.Options{Interval: 50 * time.Millisecond},
		Trace:   &obs.TraceConfig{SampleEvery: 1},
		Flight:  &obs.FlightConfig{SLO: time.Second},
		Ctrl:    true,
		Persist: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rec := httptest.NewRecorder()
	r.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	var types []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	got := strings.Join(types, "\n") + "\n"

	const golden = "testdata/metrics_series.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/v1/metrics series set drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
