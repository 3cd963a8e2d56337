package director

// Durability tests for the director: kill mid-churn-storm, recover,
// continue, and require the trajectory to be bit-identical to a director
// that was never interrupted — at worker counts 1 and 4, so the sharded
// scans stay inside the determinism contract across a crash boundary.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"dvecap/internal/topology"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

func durDelays(t *testing.T) *topology.DelayMatrix {
	t.Helper()
	g, err := topology.Waxman(xrand.New(5), topology.DefaultWaxman(40))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := topology.NewDelayMatrix(g, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

func durDirConfig(dm *topology.DelayMatrix, workers int) Config {
	return Config{
		ServerNodes:     []int{0, 10, 20, 30},
		ServerCaps:      []float64{50, 65, 80, 45},
		Zones:           8,
		Delays:          dm,
		DelayBoundMs:    250,
		FrameRate:       25,
		MessageBytes:    100,
		Seed:            1,
		DriftPQoS:       0.05,
		DriftUtilSpread: 0.3,
		// Traffic term armed: adjacency edits and the maintained cut must
		// survive the crash boundary bit-identically too.
		TrafficWeight: 0.5,
		Workers:       workers,
	}
}

// dirChurn drives a deterministic storm of director events: joins (auto
// and explicit IDs), leaves, moves, measured-delay refreshes, reassigns,
// server adds/drains/uncordons/removes and zone adds/retires. Every draw
// is gated only on the RNG and the director's own observable state, so
// two drivers with the same seed applied to bit-identical directors
// produce byte-identical event streams.
type dirChurn struct {
	rng  *xrand.RNG
	live []string
	next int
}

func newDirChurn(seed uint64) *dirChurn { return &dirChurn{rng: xrand.New(seed)} }

func (c *dirChurn) run(t *testing.T, d *Director, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		r := c.rng.Float64()
		switch {
		case r < 0.30 || len(c.live) == 0:
			node := c.rng.IntN(d.cfg.Delays.N())
			zone := c.rng.IntN(d.Stats().Zones)
			id := ""
			if c.rng.Float64() < 0.5 {
				id = fmt.Sprintf("x%04d", c.next)
				c.next++
			}
			info, err := d.Join(id, node, zone)
			if err == nil {
				c.live = append(c.live, info.ID)
			}
		case r < 0.45:
			x := c.rng.IntN(len(c.live))
			if err := d.Leave(c.live[x]); err != nil {
				t.Fatalf("event %d leave %s: %v", e, c.live[x], err)
			}
			c.live[x] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
		case r < 0.60:
			x := c.rng.IntN(len(c.live))
			zone := c.rng.IntN(d.Stats().Zones)
			if _, err := d.Move(c.live[x], zone); err != nil {
				t.Fatalf("event %d move %s: %v", e, c.live[x], err)
			}
		case r < 0.66:
			x := c.rng.IntN(len(c.live))
			row := make([]float64, len(d.Servers()))
			for i := range row {
				row[i] = c.rng.Uniform(10, 280)
			}
			if _, err := d.UpdateDelays(c.live[x], row); err != nil {
				t.Fatalf("event %d delays %s: %v", e, c.live[x], err)
			}
		case r < 0.72:
			// Interaction-graph churn: absolute sets (sometimes removals)
			// and observed-crossing accumulation.
			if z := d.Stats().Zones; z > 1 {
				z1, z2 := c.rng.IntN(z), c.rng.IntN(z)
				w := c.rng.Uniform(0.5, 4)
				switch {
				case z1 == z2:
					// Self-edge draw: skipped (would be rejected pre-journal).
				case c.rng.Float64() < 0.15:
					_, _ = d.SetAdjacency(z1, z2, 0)
				case c.rng.Float64() < 0.5:
					if _, err := d.SetAdjacency(z1, z2, w); err != nil {
						t.Fatalf("event %d set adjacency (%d,%d): %v", e, z1, z2, err)
					}
				default:
					if _, err := d.AddAdjacencyWeight(z1, z2, w); err != nil {
						t.Fatalf("event %d add adjacency (%d,%d): %v", e, z1, z2, err)
					}
				}
			}
		case r < 0.78:
			if _, err := d.Reassign(); err != nil {
				t.Fatalf("event %d reassign: %v", e, err)
			}
		case r < 0.84:
			node := c.rng.IntN(d.cfg.Delays.N())
			cap := c.rng.Uniform(30, 80)
			if _, err := d.AddServer(node, cap); err != nil {
				t.Fatalf("event %d add server: %v", e, err)
			}
		case r < 0.90:
			srv := d.Servers()
			i := c.rng.IntN(len(srv))
			avail := 0
			for _, s := range srv {
				if !s.Draining {
					avail++
				}
			}
			if srv[i].Draining {
				_, _ = d.UncordonServer(i)
			} else if avail > 1 {
				_, _ = d.DrainServer(i)
			}
		case r < 0.93:
			if _, err := d.AddZone(); err != nil {
				t.Fatalf("event %d add zone: %v", e, err)
			}
		case r < 0.96:
			if z := d.Stats().Zones; z > 1 {
				// Usually rejected (zone not empty) — which must replay as
				// rejected too.
				_ = d.RetireZone(c.rng.IntN(z))
			}
		default:
			// Remove the first empty draining server, if any — the tail of a
			// rolling-deploy drain.
			for i, s := range d.Servers() {
				if s.Draining && s.Zones == 0 {
					_ = d.RemoveServer(i)
					break
				}
			}
		}
	}
}

// dirStateJSON renders everything decision-relevant about a director:
// the planner's exported state (assignment, evaluator accumulators,
// guard counters, RNG position), every client's info keyed by ID (NOT in
// listing order — recovery renumbers registration order to dense order),
// the server and zone inventories, the public stats and the ID sequence.
func dirStateJSON(t *testing.T, d *Director) string {
	t.Helper()
	st, err := d.planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ids := append([]string(nil), d.binding.IDs()...)
	sort.Strings(ids)
	infos := make([]ClientInfo, len(ids))
	for x, id := range ids {
		info, err := d.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		infos[x] = info
	}
	blob, err := json.Marshal(struct {
		Planner   interface{}
		Clients   []ClientInfo
		Servers   []ServerInfo
		Zones     []ZoneInfo
		Adjacency []AdjacencyInfo
		Stats     Stats
		Seq       uint64
		Nodes     []int
	}{st, infos, d.Servers(), d.Zones(), d.Adjacency(), d.Stats(), d.seq, d.cfg.ServerNodes})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestDirectorKillRecoverBitIdentical is the tentpole property at the
// service layer: a durable director killed mid-storm (no Close, no final
// checkpoint) recovers to the exact state an uninterrupted control
// reached, and the two then evolve identically through more churn.
func TestDirectorKillRecoverBitIdentical(t *testing.T) {
	dm := durDelays(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const churnSeed, killAt, total = 601, 55, 80

			control, err := New(durDirConfig(dm, workers))
			if err != nil {
				t.Fatal(err)
			}
			cc := newDirChurn(churnSeed)
			cc.run(t, control, killAt)

			cfg := durDirConfig(dm, workers)
			cfg.DataDir = t.TempDir()
			cfg.SnapshotEvery = 13
			durable, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dc := newDirChurn(churnSeed)
			dc.run(t, durable, killAt)
			// Kill: the durable director is abandoned with its log tail open.

			recovered, err := New(cfg)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
				t.Fatalf("workers=%d: recovered state diverges from control at kill point", workers)
			}

			cc.run(t, control, total-killAt)
			dc.run(t, recovered, total-killAt)
			if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
				t.Fatalf("workers=%d: post-recovery trajectory diverges from control", workers)
			}
		})
	}
}

// TestDirectorTornTailRecovery cuts power mid-append: the failed event
// was never acknowledged, so recovery must land exactly on the state at
// the kill point — the torn record truncated, nothing else lost.
func TestDirectorTornTailRecovery(t *testing.T) {
	dm := durDelays(t)
	const churnSeed, killAt = 733, 30

	control, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	cc := newDirChurn(churnSeed)
	cc.run(t, control, killAt)

	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := newDirChurn(churnSeed)
	dc.run(t, d, killAt)
	d.journal.SetCrashHook(func(point string) error {
		if point == "append:torn" {
			return errors.New("power cut mid-write")
		}
		return nil
	})
	if _, err := d.Join("victim", 7, 2); err == nil {
		t.Fatal("join survived a torn journal append")
	}

	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatal("recovered state diverges from control at the kill point")
	}
	cc.run(t, control, 15)
	dc.run(t, recovered, 15)
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatal("post-recovery trajectory diverges from control")
	}
}

// TestDirectorFailContinueCrashRecover: a journal append fails half-way
// and the director carries on serving. The journal is fail-stop: every
// later mutation is refused with ErrJournalFailed — 503 over HTTP, never
// 400 — /v1/readyz turns 503, the dvecap_wal_failed gauge reads 1, and the
// director stays exactly at the acknowledged prefix. A crash then
// recovers exactly that prefix, ready again, and the recovered director
// tracks an uninterrupted control.
func TestDirectorFailContinueCrashRecover(t *testing.T) {
	dm := durDelays(t)
	const churnSeed, failAt = 733, 30

	control, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	cc := newDirChurn(churnSeed)
	cc.run(t, control, failAt)

	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 7
	cfg.Telemetry = telemetry.NewRegistry()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := newDirChurn(churnSeed)
	dc.run(t, d, failAt)
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	status := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	walFailed := func() float64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		pm, err := telemetry.ParsePrometheus(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		g, err := pm.Sample("dvecap_wal_failed", nil)
		if err != nil {
			t.Fatal(err)
		}
		return g.Value
	}
	if got := status(http.MethodGet, "/v1/readyz", ""); got != http.StatusOK {
		t.Fatalf("readyz before the failure: %d, want 200", got)
	}
	if got := walFailed(); got != 0 {
		t.Fatalf("dvecap_wal_failed = %v before the failure", got)
	}

	armed := true
	d.journal.SetCrashHook(func(point string) error {
		if armed && point == "append:torn" {
			armed = false
			return errors.New("disk gone")
		}
		return nil
	})
	if got := status(http.MethodPost, "/v1/clients", `{"id":"victim","node":7,"zone":2}`); got != http.StatusServiceUnavailable {
		t.Fatalf("join whose append failed: HTTP %d, want 503", got)
	}
	// Continue: the hook no longer fires, yet every write is refused.
	live := dc.live[0]
	for _, w := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/clients", `{"node":3,"zone":1}`},
		{http.MethodPost, "/v1/clients/" + live + "/move", `{"zone":4}`},
		{http.MethodDelete, "/v1/clients/" + live, ""},
		{http.MethodPost, "/v1/servers", `{"node":5,"capacity_mbps":40}`},
		{http.MethodPost, "/v1/zones", ""},
		{http.MethodPost, "/v1/adjacency/add", `{"zone1":0,"zone2":1,"delta_mbps":1}`},
		{http.MethodPost, "/v1/reassign", ""},
		{http.MethodPost, "/v1/checkpoint", ""},
	} {
		if got := status(w.method, w.path, w.body); got != http.StatusServiceUnavailable {
			t.Fatalf("%s %s after the failure: HTTP %d, want 503", w.method, w.path, got)
		}
	}
	if _, err := d.Move(live, 4); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Move after the failure returned %v, want ErrJournalFailed", err)
	}
	if got := status(http.MethodGet, "/v1/readyz", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after the failure: %d, want 503", got)
	}
	if got := status(http.MethodGet, "/v1/healthz", ""); got != http.StatusOK {
		t.Fatalf("healthz after the failure: %d, want 200", got)
	}
	if got := walFailed(); got != 1 {
		t.Fatalf("dvecap_wal_failed = %v after the failure, want 1", got)
	}
	if got, want := dirStateJSON(t, d), dirStateJSON(t, control); got != want {
		t.Fatal("refused writes changed the failed director's state")
	}

	// Crash and recover: exactly the acknowledged prefix, ready again.
	cfg.Telemetry = telemetry.NewRegistry()
	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatal("recovered state diverges from the acknowledged prefix")
	}
	srv2 := httptest.NewServer(Handler(recovered))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d, want 200", resp.StatusCode)
	}
	cc.run(t, control, 15)
	dc.run(t, recovered, 15)
	if got, want := dirStateJSON(t, recovered), dirStateJSON(t, control); got != want {
		t.Fatal("post-recovery trajectory diverges from control")
	}
}

func TestDirectorCheckpointCloseReopen(t *testing.T) {
	dm := durDelays(t)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := newDirChurn(99)
	ch.run(t, d, 25)

	lsn, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("checkpoint after 25 events reports LSN 0")
	}
	want := dirStateJSON(t, d)

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.Join("", 3, 0); !errors.Is(err, ErrDirectorClosed) {
		t.Fatalf("Join after Close: %v, want ErrDirectorClosed", err)
	}
	if _, err := d.AddZone(); !errors.Is(err, ErrDirectorClosed) {
		t.Fatalf("AddZone after Close: %v, want ErrDirectorClosed", err)
	}
	if st := d.Stats(); st.Clients != len(ch.live) {
		t.Fatalf("Stats after Close: %d clients, want %d", st.Clients, len(ch.live))
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := dirStateJSON(t, r); got != want {
		t.Fatal("reopened state differs from the closed one")
	}
	if _, err := r.Join("", 5, 1); err != nil {
		t.Fatalf("join after reopen: %v", err)
	}
}

func TestDirectorRecoverRejectsMismatch(t *testing.T) {
	dm := durDelays(t)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Join("", i, i%8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Algorithm = "RanZ-GreC"
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "algorithm") {
		t.Fatalf("algorithm mismatch accepted: %v", err)
	}
	bad = cfg
	bad.DelayBoundMs = 300
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch accepted: %v", err)
	}

	// The stored deployment supersedes whatever servers/zones the
	// recovering caller passes.
	superseded := cfg
	superseded.ServerNodes = []int{1}
	superseded.ServerCaps = []float64{5}
	superseded.Zones = 2
	r, err := New(superseded)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	st := r.Stats()
	if st.Servers != 4 || st.Zones != 8 || st.Clients != 5 {
		t.Fatalf("recovered %d servers / %d zones / %d clients, want 4 / 8 / 5", st.Servers, st.Zones, st.Clients)
	}
}

// TestHTTPCheckpointAndRecoveryGate covers the operational surface:
// POST /v1/checkpoint snapshots a durable director over HTTP, and the
// handler sheds everything but the liveness probe with 503 + Retry-After
// while the director is replaying its journal.
func TestHTTPCheckpointAndRecoveryGate(t *testing.T) {
	dm := durDelays(t)
	cfg := durDirConfig(dm, 1)
	cfg.DataDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c := NewClient(srv.URL)

	for i := 0; i < 5; i++ {
		if _, err := c.Join("", i, i%8); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Durable || res.LSN < 5 {
		t.Fatalf("checkpoint = %+v, want durable with LSN >= 5", res)
	}

	d.recovering.Store(true)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats during recovery: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during recovery: %d, want 200", resp.StatusCode)
	}
	d.recovering.Store(false)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after recovery cleared: %v", err)
	}

	// Checkpointing a non-durable director is an explicit no-op.
	nd, err := New(durDirConfig(dm, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(nd))
	defer srv2.Close()
	res, err = NewClient(srv2.URL).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Durable || res.LSN != 0 {
		t.Fatalf("non-durable checkpoint = %+v, want {0 false}", res)
	}
}
