package loadgen

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/metrics"
)

// TestArchivedTargetMountsAPI: a target started with an archive serves
// the stats API on /api/v1; without this check a lost mount shows only
// as failed queries against a live service.
func TestArchivedTargetMountsAPI(t *testing.T) {
	target, err := StartInprocOpts(InprocOptions{
		ShareDifficulty: 2,
		Registry:        metrics.NewRegistry(),
		Archive:         archive.NewMemStore(1 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	resp, err := http.Get("http" + strings.TrimPrefix(target.URL, "ws") + "/api/v1/top")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/top = %d, want 200", resp.StatusCode)
	}
}
