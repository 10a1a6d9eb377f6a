package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable registry clock: fault tests drive liveness
// by advancing it and calling ExpireNow, never by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRegistryLifecycle drives registration, heartbeats, expiry, and
// re-registration through the Go API with a fake clock.
func TestRegistryLifecycle(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(RegistryOptions{
		HeartbeatInterval: time.Second,
		Now:               clock.Now,
		Logf:              t.Logf,
	})

	a := reg.Register("127.0.0.1:1001", 1)
	b := reg.Register("127.0.0.1:1002", 1)
	if a.ID == b.ID {
		t.Fatalf("duplicate worker ids: %s", a.ID)
	}
	if live := reg.Live(); len(live) != 2 {
		t.Fatalf("want 2 live workers, got %v", live)
	}

	// One missed interval is not death.
	clock.Advance(1500 * time.Millisecond)
	if err := reg.Heartbeat(b.ID); err != nil {
		t.Fatal(err)
	}
	if dead := reg.ExpireNow(); len(dead) != 0 {
		t.Fatalf("1.5 intervals of silence already dead: %v", dead)
	}

	// Two missed intervals kill a (b kept beating).
	clock.Advance(500 * time.Millisecond)
	dead := reg.ExpireNow()
	if len(dead) != 1 || dead[0].ID != a.ID {
		t.Fatalf("want %s dead, got %v", a.ID, dead)
	}
	if live := reg.Live(); len(live) != 1 || live[0].ID != b.ID {
		t.Fatalf("want only %s live, got %v", b.ID, live)
	}
	liveN, deadN := reg.Counts()
	if liveN != 1 || deadN != 1 {
		t.Fatalf("counts live=%d dead=%d, want 1/1", liveN, deadN)
	}

	// A dead id's heartbeat is rejected — the lease must re-register.
	if err := reg.Heartbeat(a.ID); err == nil {
		t.Fatal("dead worker heartbeat accepted")
	}

	// Re-registration at the same address drops the dead entry and
	// issues a fresh id.
	a2 := reg.Register("127.0.0.1:1001", 1)
	if a2.ID == a.ID {
		t.Fatalf("re-registration reused dead id %s", a.ID)
	}
	liveN, deadN = reg.Counts()
	if liveN != 2 || deadN != 0 {
		t.Fatalf("after re-registration: live=%d dead=%d, want 2/0", liveN, deadN)
	}
}

// TestPinnedWorkerNeverExpires: a pinned address holds no lease, so the
// liveness window that kills a silent registered worker leaves it live.
func TestPinnedWorkerNeverExpires(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(RegistryOptions{
		HeartbeatInterval: time.Second,
		Now:               clock.Now,
	})
	reg.pin("http://127.0.0.1:1001")
	leased := reg.Register("127.0.0.1:1002", 1)

	clock.Advance(2 * time.Second)
	if dead := reg.ExpireNow(); len(dead) != 1 || dead[0].ID != leased.ID {
		t.Fatalf("want only %s dead, got %v", leased.ID, dead)
	}
	live := reg.Live()
	if len(live) != 1 || live[0].ID != "http://127.0.0.1:1001" || live[0].Addr != live[0].ID {
		t.Fatalf("want the pinned address live under its own name, got %v", live)
	}
}

// TestRegistryChangedWakesOnEveryTransition: Changed fires on register
// and on expiry.
func TestRegistryChangedWakesOnEveryTransition(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(RegistryOptions{Now: clock.Now})

	ch := reg.Changed()
	w := reg.Register("127.0.0.1:1001", 1)
	select {
	case <-ch:
	default:
		t.Fatal("registration did not fire Changed")
	}

	ch = reg.Changed()
	clock.Advance(2 * time.Second)
	if dead := reg.ExpireNow(); len(dead) != 1 || dead[0].ID != w.ID {
		t.Fatalf("want %s dead, got %v", w.ID, dead)
	}
	select {
	case <-ch:
	default:
		t.Fatal("expiry did not fire Changed")
	}
}

// TestRegistryHTTP exercises the wire protocol: registration replies
// carry the heartbeat contract, beats 204, unknown ids 404, and the
// roster lists live and dead.
func TestRegistryHTTP(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(RegistryOptions{
		HeartbeatInterval: 250 * time.Millisecond,
		Now:               clock.Now,
	})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"addr": "127.0.0.1:9190"}`))
	if err != nil {
		t.Fatal(err)
	}
	var regResp RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&regResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || regResp.ID == "" {
		t.Fatalf("register: HTTP %d, id %q", resp.StatusCode, regResp.ID)
	}
	if regResp.HeartbeatMS != 250 || regResp.Missed != 2 {
		t.Fatalf("heartbeat contract %+v, want 250ms x2", regResp)
	}

	resp, err = http.Post(srv.URL+"/v1/workers/"+regResp.ID+"/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeat: HTTP %d, want 204", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/workers/w-999/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: HTTP %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/workers", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	clock.Advance(time.Second)
	reg.ExpireNow()
	resp, err = http.Get(srv.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var roster struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(roster.Workers) != 1 || roster.Workers[0].Alive {
		t.Fatalf("roster %+v, want one dead worker", roster.Workers)
	}
}

// TestLeaseRegistersAndReRegisters: a lease registers (retrying until
// the registry exists), heartbeats on the advertised cadence, and
// re-registers under a fresh id after the registry forgets it.
func TestLeaseRegistersAndReRegisters(t *testing.T) {
	reg := NewRegistry(RegistryOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		Logf:              t.Logf,
	})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	lease, err := Join(srv.URL, "127.0.0.1:9190", LeaseOptions{
		RetryDelay: 10 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Stop()

	waitLive := func(what string) WorkerRef {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if live := reg.Live(); len(live) == 1 {
				return live[0]
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: lease never became live", what)
			}
			select {
			case <-reg.Changed():
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	first := waitLive("initial registration")

	// Forcibly expire the lease (as a long partition would); the next
	// heartbeat is rejected and the lease re-registers with a fresh id.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reg.mu.Lock()
		if w := reg.workers[first.ID]; w != nil {
			w.lastBeat = w.lastBeat.Add(-time.Minute)
		}
		reg.mu.Unlock()
		reg.ExpireNow()
		second := waitLive("re-registration")
		if second.ID != first.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never re-registered with a fresh id")
		}
	}
}
