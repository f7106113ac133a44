package api

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/device"
)

// TestResolvePlatform covers the shared catalogue: every key resolves to
// an entry equal to a freshly built one (the default "" to virtex7),
// repeated lookups share one entry, and an unknown name gets the 400
// listing the known keys.
func TestResolvePlatform(t *testing.T) {
	fresh := device.Platforms()
	for _, name := range []string{"", "virtex7", "ku060", "u250"} {
		p, key, e := ResolvePlatform(name)
		if e != nil {
			t.Fatalf("%q: %v", name, e)
		}
		want := name
		if want == "" {
			want = "virtex7"
		}
		if key != want {
			t.Errorf("%q: key %q, want %q", name, key, want)
		}
		if !reflect.DeepEqual(p, fresh[want]) {
			t.Errorf("%q: shared entry differs from device.Platforms()[%q]", name, want)
		}
		if again, _, _ := ResolvePlatform(name); again != p {
			t.Errorf("%q: repeated lookups return different entries", name)
		}
	}

	p, key, e := ResolvePlatform("stratix10")
	if p != nil || key != "" || e == nil {
		t.Fatalf("unknown platform resolved: %v %q %v", p, key, e)
	}
	if e.Status != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("status %d code %q, want 400 %q", e.Status, e.Code, CodeBadRequest)
	}
	if want := `unknown platform "stratix10" (known: ku060, u250, virtex7)`; e.Message != want {
		t.Errorf("message %q, want %q", e.Message, want)
	}
}
