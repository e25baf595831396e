package obs

import (
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The admin mux must serve non-empty mutex/block profiles once contention
// profiling is enabled — that is the verification path for any shard-
// contention claim.
func TestAdminMuxServesContentionProfiles(t *testing.T) {
	EnableContentionProfiling(1, 1)
	defer func() {
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}()

	// Manufacture some mutex contention so the profile has samples.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				mu.Lock()
				runtime.Gosched()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	srv := httptest.NewServer(AdminMux(NewRegistry(), nil, nil))
	defer srv.Close()
	for _, profile := range []string{"mutex", "block"} {
		resp, err := srv.Client().Get(srv.URL + "/debug/pprof/" + profile + "?debug=1")
		if err != nil {
			t.Fatalf("GET %s: %v", profile, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s profile status %d", profile, resp.StatusCode)
		}
		if !strings.Contains(string(body), "cycles/second") {
			t.Errorf("%s profile response does not look like a contention profile:\n%.200s", profile, body)
		}
	}
}

func TestEnableContentionProfilingIgnoresNonPositive(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(-1) // read current
	runtime.SetMutexProfileFraction(prev)
	EnableContentionProfiling(0, 0) // must not change anything
	if got := runtime.SetMutexProfileFraction(-1); got != prev {
		t.Errorf("mutex fraction changed to %d by no-op enable, want %d", got, prev)
	}
	runtime.SetMutexProfileFraction(prev)
}
