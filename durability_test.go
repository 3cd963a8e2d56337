package dvecap

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"dvecap/internal/wal"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// durTestCluster builds the fixed fleet the durability tests churn: four
// servers, six zones, twenty seed clients with deterministic measured
// rows. Two calls with the same seed build identical clusters.
func durTestCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	rng := xrand.New(seed)
	c := NewCluster(250)
	caps := []float64{60, 80, 100, 70}
	for i, cap := range caps {
		if err := c.AddServer(fmt.Sprintf("s%d", i), ServerSpec{CapacityMbps: cap}); err != nil {
			t.Fatal(err)
		}
	}
	ss := make([][]float64, len(caps))
	for i := range ss {
		ss[i] = make([]float64, len(caps))
	}
	for i := range ss {
		for l := i + 1; l < len(ss); l++ {
			d := rng.Uniform(10, 60)
			ss[i][l], ss[l][i] = d, d
		}
	}
	if err := c.SetServerRTTs(ss); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 6; z++ {
		if err := c.AddZone(fmt.Sprintf("z%d", z)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 20; j++ {
		err := c.AddClient(fmt.Sprintf("c%02d", j), ClientSpec{
			Zone:          fmt.Sprintf("z%d", rng.IntN(6)),
			BandwidthMbps: rng.Uniform(0.2, 0.8),
			RTTRow:        durRow(rng, len(caps)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func durRow(rng *xrand.RNG, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		row[i] = rng.Uniform(10, 280)
	}
	return row
}

func durSeedIDs() []string {
	ids := make([]string, 20)
	for j := range ids {
		ids[j] = fmt.Sprintf("c%02d", j)
	}
	return ids
}

// sessChurn drives a deterministic mixed workload through the PUBLIC
// session surface — joins (single and batch), leaves, moves, delay
// refreshes in both forms, bandwidth updates, zone growth, explicit
// re-solves and drain/uncordon cycles. Two drivers with equal RNG state
// and live lists issue the same event sequence; the durability tests
// compare a crashed-and-recovered session against an uninterrupted one
// driven identically.
type sessChurn struct {
	rng      *xrand.RNG
	live     []string
	next     int
	nextZone int
}

func newSessChurn(rng *xrand.RNG) *sessChurn {
	return &sessChurn{rng: rng, live: durSeedIDs(), next: 0}
}

func (d *sessChurn) clone(rng *xrand.RNG) *sessChurn {
	return &sessChurn{rng: rng, live: append([]string(nil), d.live...), next: d.next, nextZone: d.nextZone}
}

func (d *sessChurn) freshID() string {
	id := fmt.Sprintf("n%04d", d.next)
	d.next++
	return id
}

func (d *sessChurn) run(t *testing.T, s *ClusterSession, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		m := s.NumServers()
		zids := s.ZoneIDs()
		r := d.rng.Float64()
		switch {
		case len(d.live) == 0 || r < 0.20:
			id := d.freshID()
			err := s.Join(id, ClientSpec{
				Zone:          zids[d.rng.IntN(len(zids))],
				BandwidthMbps: d.rng.Uniform(0.1, 0.6),
				RTTRow:        durRow(d.rng, m),
			})
			if err != nil {
				t.Fatalf("event %d join: %v", e, err)
			}
			d.live = append(d.live, id)
		case r < 0.28:
			cnt := d.rng.IntRange(2, 4)
			joins := make([]ClientJoin, cnt)
			for x := range joins {
				joins[x] = ClientJoin{ID: d.freshID(), Spec: ClientSpec{
					Zone:          zids[d.rng.IntN(len(zids))],
					BandwidthMbps: d.rng.Uniform(0.1, 0.6),
					RTTRow:        durRow(d.rng, m),
				}}
				d.live = append(d.live, joins[x].ID)
			}
			if err := s.JoinBatch(joins); err != nil {
				t.Fatalf("event %d join batch: %v", e, err)
			}
		case r < 0.42:
			x := d.rng.IntN(len(d.live))
			if err := s.Leave(d.live[x]); err != nil {
				t.Fatalf("event %d leave: %v", e, err)
			}
			d.live = append(d.live[:x], d.live[x+1:]...)
		case r < 0.48 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			gone := make(map[string]bool, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				gone[ids[x]] = true
			}
			if err := s.LeaveBatch(ids); err != nil {
				t.Fatalf("event %d leave batch: %v", e, err)
			}
			kept := d.live[:0]
			for _, id := range d.live {
				if !gone[id] {
					kept = append(kept, id)
				}
			}
			d.live = kept
		case r < 0.60:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.Move(id, zids[d.rng.IntN(len(zids))]); err != nil {
				t.Fatalf("event %d move: %v", e, err)
			}
		case r < 0.66 && len(d.live) >= 4:
			cnt := d.rng.IntRange(2, 4)
			picks := d.rng.SampleWithout(len(d.live), cnt)
			ids := make([]string, cnt)
			zones := make([]string, cnt)
			for x, i := range picks {
				ids[x] = d.live[i]
				zones[x] = zids[d.rng.IntN(len(zids))]
			}
			if err := s.MoveBatch(ids, zones); err != nil {
				t.Fatalf("event %d move batch: %v", e, err)
			}
		case r < 0.76:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.UpdateDelayRow(id, durRow(d.rng, m)); err != nil {
				t.Fatalf("event %d delay row: %v", e, err)
			}
		case r < 0.82:
			// Partial map-form refresh: two servers re-probed.
			id := d.live[d.rng.IntN(len(d.live))]
			sids := s.ServerIDs()
			picks := d.rng.SampleWithout(m, 2)
			rtts := map[string]float64{
				sids[picks[0]]: d.rng.Uniform(10, 280),
				sids[picks[1]]: d.rng.Uniform(10, 280),
			}
			if err := s.UpdateDelays(id, rtts); err != nil {
				t.Fatalf("event %d delays: %v", e, err)
			}
		case r < 0.86:
			id := d.live[d.rng.IntN(len(d.live))]
			if err := s.SetBandwidth(id, d.rng.Uniform(0.1, 0.6)); err != nil {
				t.Fatalf("event %d bandwidth: %v", e, err)
			}
		case r < 0.90:
			if err := s.SetZoneBandwidth(zids[d.rng.IntN(len(zids))], d.rng.Uniform(0.1, 0.5)); err != nil {
				t.Fatalf("event %d zone bandwidth: %v", e, err)
			}
		case r < 0.93:
			id := fmt.Sprintf("zx%03d", d.nextZone)
			d.nextZone++
			var spec ZoneSpec
			if d.rng.Float64() < 0.5 {
				// Only pin hosts that can accept a zone; a draining draw
				// falls back to auto-placement, keeping the RNG stream
				// aligned across drivers.
				if st := s.Servers()[d.rng.IntN(m)]; !st.Draining {
					spec.Host = st.ID
				}
			}
			if err := s.AddZone(id, spec); err != nil {
				t.Fatalf("event %d add zone: %v", e, err)
			}
		case r < 0.96:
			if err := s.Resolve(); err != nil {
				t.Fatalf("event %d resolve: %v", e, err)
			}
		default:
			sts := s.Servers()
			i := d.rng.IntN(len(sts))
			if sts[i].Draining {
				if err := s.UncordonServer(sts[i].ID); err != nil {
					t.Fatalf("event %d uncordon: %v", e, err)
				}
			} else {
				avail := 0
				for _, st := range sts {
					if !st.Draining {
						avail++
					}
				}
				if avail > 1 {
					if err := s.DrainServer(sts[i].ID); err != nil {
						t.Fatalf("event %d drain: %v", e, err)
					}
				}
			}
		}
	}
}

// sessionStateJSON renders everything decision-relevant about a session —
// the planner sidecar (assignment, evaluator accumulators, guard
// counters, RNG position) plus the ID-visible topology — for equality
// checks.
func sessionStateJSON(t *testing.T, s *ClusterSession) string {
	t.Helper()
	st, err := s.planner().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		State   interface{} `json:"state"`
		Servers []string    `json:"servers"`
		Zones   []string    `json:"zones"`
	}{st, s.binding.ServerNames(), s.binding.ZoneNames()})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func requireSameSession(t *testing.T, want, got *ClusterSession) {
	t.Helper()
	if a, b := sessionStateJSON(t, want), sessionStateJSON(t, got); a != b {
		t.Fatalf("sessions diverged:\n%s\nvs\n%s", a, b)
	}
	for _, id := range want.ClientIDs() {
		ca, err := want.Client(id)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := got.Client(id)
		if err != nil {
			t.Fatalf("client %q missing after recovery: %v", id, err)
		}
		if ca != cb {
			t.Fatalf("client %q diverged: %+v vs %+v", id, ca, cb)
		}
	}
}

// reopenDurable recovers the session stored in dir. The cluster value it
// is called on is deliberately empty: recovery must take everything from
// the snapshot and log, ignoring the caller's builder.
func reopenDurable(t *testing.T, dir, algo string, workers int) *ClusterSession {
	t.Helper()
	// Recovery runs fully instrumented (metrics + trace sink): DESIGN.md §12
	// promises telemetry is observation-only, so the bit-identical
	// comparison below doubles as that proof for the recovery path.
	s, err := NewCluster(1).Open(algo, WithDurability(dir), WithWorkers(workers), WithSnapshotEvery(17),
		WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return s
}

// TestDurableKillRecoverBitIdentical is the tentpole guarantee: a durable
// session killed mid-churn-storm (no Close, no final checkpoint — the
// process just dies) recovers from its newest snapshot plus log tail and
// continues BIT-IDENTICAL to a session that never crashed, at both 1 and
// 4 workers. Equality covers the full planner sidecar — assignment,
// evaluator accumulators (order-dependent floats), guard counters, RNG
// position — and every client's visible assignment.
func TestDurableKillRecoverBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := []Option{
				WithWorkers(workers), WithSeed(7),
				WithDriftGuard(0.03), WithImbalanceGuard(0.2),
			}
			control, err := durTestCluster(t, 11).Open("GreZ-GreC", opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			// The durable session runs with telemetry and tracing attached;
			// the control runs bare. Equality at the end proves the
			// instrumentation never perturbs the computation.
			durable, err := durTestCluster(t, 11).Open("GreZ-GreC",
				append([]Option{WithDurability(dir), WithSnapshotEvery(17),
					WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			const churnSeed, killAt, total = 401, 60, 90
			dc := newSessChurn(xrand.New(churnSeed))
			dd := newSessChurn(xrand.New(churnSeed))
			dc.run(t, control, total)
			dd.run(t, durable, killAt)
			// Kill: the session is abandoned with its log open, exactly as a
			// dead process leaves it. Auto-checkpoints fired every 17 events,
			// so recovery replays only the tail after the newest snapshot.
			recovered := reopenDurable(t, dir, "GreZ-GreC", workers)
			dd.run(t, recovered, total-killAt)
			requireSameSession(t, control, recovered)
		})
	}
}

// providerStateJSON renders the session problem's delay-provider internals
// (coordinates, override lists, shared-row group tables, free lists) for
// bit-identity checks; empty for dense sessions.
func providerStateJSON(t *testing.T, s *ClusterSession) string {
	t.Helper()
	p := s.planner().Problem()
	if p.Delays == nil {
		return ""
	}
	blob, err := json.Marshal(p.Delays.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestDurableKillRecoverBitIdenticalProviders is the provider dimension of
// TestDurableKillRecoverBitIdentical: a session opened under CoordDelays or
// SharedRowDelays, killed mid-churn-storm, must recover and continue
// bit-identical to an uninterrupted control — including the provider's
// INTERNAL state (coordinates, override maps, row-sharing tables), not just
// the delays it reports, so every post-recovery mutation stays on the
// uncrashed trajectory.
func TestDurableKillRecoverBitIdenticalProviders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model DelayModel
	}{{"coord", CoordDelays}, {"shared", SharedRowDelays}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{
				WithSeed(7), WithDelayProvider(tc.model),
				WithDriftGuard(0.03), WithImbalanceGuard(0.2),
			}
			control, err := durTestCluster(t, 11).Open("GreZ-GreC", opts...)
			if err != nil {
				t.Fatal(err)
			}
			if control.planner().Problem().Delays == nil {
				t.Fatal("WithDelayProvider did not bind a provider")
			}
			dir := t.TempDir()
			durable, err := durTestCluster(t, 11).Open("GreZ-GreC",
				append([]Option{WithDurability(dir), WithSnapshotEvery(17),
					WithTelemetry(telemetry.NewRegistry()), WithTraceLog(io.Discard)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			const churnSeed, killAt, total = 401, 60, 90
			dc := newSessChurn(xrand.New(churnSeed))
			dd := newSessChurn(xrand.New(churnSeed))
			dc.run(t, control, total)
			dd.run(t, durable, killAt)
			// Kill mid-storm: the log is left open, no final checkpoint.
			recovered := reopenDurable(t, dir, "GreZ-GreC", 0)
			if recovered.planner().Problem().Delays == nil {
				t.Fatal("recovery dropped the delay provider")
			}
			dd.run(t, recovered, total-killAt)
			requireSameSession(t, control, recovered)
			if a, b := providerStateJSON(t, control), providerStateJSON(t, recovered); a != b {
				t.Fatalf("provider internals diverged after recovery:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestDurableTornTailRecovery crashes INSIDE an append — half a frame
// reaches the disk, the event is never acknowledged — and verifies the
// torn tail is truncated on recovery: the session resumes at exactly the
// last acked event, then tracks an uninterrupted control bit-identically.
func TestDurableTornTailRecovery(t *testing.T) {
	opts := []Option{WithSeed(3), WithDriftGuard(0.03)}
	control, err := durTestCluster(t, 19).Open("GreZ-GreC", opts...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable, err := durTestCluster(t, 19).Open("GreZ-GreC",
		append([]Option{WithDurability(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}

	const churnSeed, killAt = 733, 40
	dc := newSessChurn(xrand.New(churnSeed))
	dd := newSessChurn(xrand.New(churnSeed))
	dc.run(t, control, killAt)
	dd.run(t, durable, killAt)

	boom := errors.New("power cut")
	durable.journal.SetCrashHook(func(point string) error {
		if point == "append:torn" {
			return boom
		}
		return nil
	})
	if err := durable.Join("victim", ClientSpec{
		Zone: "z0", BandwidthMbps: 0.3, RTTRow: durRow(xrand.New(1), durable.NumServers()),
	}); !errors.Is(err, boom) {
		t.Fatalf("torn append returned %v, want the injected crash", err)
	}

	recovered := reopenDurable(t, dir, "GreZ-GreC", 0)
	requireSameSession(t, control, recovered)

	// The recovered session keeps tracking the control under fresh churn.
	contSeed := xrand.New(churnSeed + 1).Seed()
	d1 := dc.clone(xrand.New(contSeed))
	d2 := dc.clone(xrand.New(contSeed))
	d1.run(t, control, 25)
	d2.run(t, recovered, 25)
	requireSameSession(t, control, recovered)
}

// TestDurableFailContinueCrashRecover: a journal append fails half-way
// (a torn frame stays on disk) and the caller survives and carries on.
// The journal is fail-stop: that event and every later one is refused
// with ErrJournalFailed, so the session stays exactly at the acknowledged
// prefix, Close writes no snapshot over the failure, and the
// dvecap_wal_failed gauge reads 1. A crash then recovers exactly that
// prefix, and the recovered session tracks an uninterrupted control.
func TestDurableFailContinueCrashRecover(t *testing.T) {
	opts := []Option{WithSeed(3), WithDriftGuard(0.03)}
	control, err := durTestCluster(t, 19).Open("GreZ-GreC", opts...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	durable, err := durTestCluster(t, 19).Open("GreZ-GreC",
		append([]Option{WithDurability(dir), WithSnapshotEvery(11), WithTelemetry(reg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	const churnSeed, failAt = 733, 40
	dc := newSessChurn(xrand.New(churnSeed))
	dd := newSessChurn(xrand.New(churnSeed))
	dc.run(t, control, failAt)
	dd.run(t, durable, failAt)
	failed := reg.Gauge("dvecap_wal_failed", "")
	if failed.Value() != 0 {
		t.Fatalf("dvecap_wal_failed = %v before any failure", failed.Value())
	}

	boom := errors.New("disk gone")
	armed := true
	durable.journal.SetCrashHook(func(point string) error {
		if armed && point == "append:torn" {
			armed = false
			return boom
		}
		return nil
	})
	row := durRow(xrand.New(1), durable.NumServers())
	if err := durable.Join("victim", ClientSpec{Zone: "z0", BandwidthMbps: 0.3, RTTRow: row}); !errors.Is(err, boom) || !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("failed append returned %v, want the fault wrapped in ErrJournalFailed", err)
	}
	// Continue: the hook no longer fires, yet every mutator is refused.
	live := dd.live[0]
	for name, op := range map[string]func() error{
		"join":     func() error { return durable.Join("late", ClientSpec{Zone: "z1", BandwidthMbps: 0.2, RTTRow: row}) },
		"leave":    func() error { return durable.Leave(live) },
		"move":     func() error { return durable.Move(live, "z2") },
		"resolve":  durable.Resolve,
		"add zone": func() error { return durable.AddZone("zlate", ZoneSpec{}) },
		"drain":    func() error { return durable.DrainServer("s0") },
	} {
		if err := op(); !errors.Is(err, ErrJournalFailed) {
			t.Fatalf("%s after the failure returned %v, want ErrJournalFailed", name, err)
		}
	}
	if err := durable.Checkpoint(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("checkpoint after the failure returned %v, want ErrJournalFailed", err)
	}
	if got, want := sessionStateJSON(t, durable), sessionStateJSON(t, control); got != want {
		t.Fatal("refused events changed the failed session's state")
	}
	if failed.Value() != 1 {
		t.Fatalf("dvecap_wal_failed = %v after the failure, want 1", failed.Value())
	}
	snaps, err := wal.SnapshotLSNs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Close(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Close of a failed session returned %v, want ErrJournalFailed", err)
	}
	if after, err := wal.SnapshotLSNs(dir); err != nil || fmt.Sprint(after) != fmt.Sprint(snaps) {
		t.Fatalf("Close of a failed session changed the snapshots: %v → %v (%v)", snaps, after, err)
	}

	// Crash and recover: exactly the acknowledged prefix.
	recovered := reopenDurable(t, dir, "GreZ-GreC", 0)
	requireSameSession(t, control, recovered)
	contSeed := xrand.New(churnSeed + 1).Seed()
	d1 := dc.clone(xrand.New(contSeed))
	d2 := dc.clone(xrand.New(contSeed))
	d1.run(t, control, 25)
	d2.run(t, recovered, 25)
	requireSameSession(t, control, recovered)
}

// TestDurableCrashPointMatrix kills the session at every injection point
// the WAL and snapshot writers expose and proves two invariants at each:
// recovery never fails (and never panics), and no ACKNOWLEDGED event is
// lost — the recovered state equals the control at the last acked event,
// or (for crashes after the record was fully written but before the sync
// was acknowledged) at the following one. Crashes during checkpointing
// must lose nothing at all: the log still holds every event.
func TestDurableCrashPointMatrix(t *testing.T) {
	const churnSeed, crashAt = 555, 25
	for _, point := range []string{
		"append:start", "append:torn", "append:unsynced",
		"snapshot:temp", "snapshot:renamed",
	} {
		t.Run(strings.ReplaceAll(point, ":", "_"), func(t *testing.T) {
			controlK, err := durTestCluster(t, 29).Open("GreZ-GreC", WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			durable, err := durTestCluster(t, 29).Open("GreZ-GreC", WithSeed(5), WithDurability(dir))
			if err != nil {
				t.Fatal(err)
			}
			dck := newSessChurn(xrand.New(churnSeed))
			dd := newSessChurn(xrand.New(churnSeed))
			dck.run(t, controlK, crashAt)
			dd.run(t, durable, crashAt)

			boom := fmt.Errorf("crash at %s", point)
			durable.journal.SetCrashHook(func(p string) error {
				if p == point {
					return boom
				}
				return nil
			})
			var candidates []string
			switch {
			case strings.HasPrefix(point, "append:"):
				// Crash while journaling event crashAt. The event was never
				// acked; recovery may legitimately land on either side of it
				// only when the record was fully written (unsynced).
				row := durRow(dd.rng, durable.NumServers())
				if err := durable.Join("victim", ClientSpec{Zone: "z1", BandwidthMbps: 0.3, RTTRow: row}); !errors.Is(err, boom) {
					t.Fatalf("append crash returned %v, want the injection", err)
				}
				candidates = append(candidates, sessionStateJSON(t, controlK))
				if point == "append:unsynced" {
					if err := controlK.Join("victim", ClientSpec{Zone: "z1", BandwidthMbps: 0.3, RTTRow: row}); err != nil {
						t.Fatal(err)
					}
					candidates = append(candidates, sessionStateJSON(t, controlK))
				}
			default:
				// Crash while checkpointing. Every event is acked and on the
				// log; the interrupted (or just-renamed) snapshot must not
				// cost any of them.
				if err := durable.Checkpoint(); !errors.Is(err, boom) {
					t.Fatalf("snapshot crash returned %v, want the injection", err)
				}
				candidates = append(candidates, sessionStateJSON(t, controlK))
			}

			recovered := reopenDurable(t, dir, "GreZ-GreC", 0)
			got := sessionStateJSON(t, recovered)
			for _, want := range candidates {
				if got == want {
					return
				}
			}
			t.Fatalf("recovered state matches no acked prefix at %s:\n%s", point, got)
		})
	}
}

// TestDurableCheckpointCloseReopen covers the planned-downtime path:
// Checkpoint pins a snapshot at the log head and prunes old generations;
// Close checkpoints and fences further events with ErrSessionClosed; a
// reopen recovers the exact state with nothing to replay. Read paths stay
// usable after Close.
func TestDurableCheckpointCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := durTestCluster(t, 41).Open("GreZ-GreC", WithSeed(9), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	d := newSessChurn(xrand.New(97))
	d.run(t, s, 30)

	// No-op refreshes must not journal: the log head stays put.
	head := s.journal.NextLSN()
	if err := s.UpdateDelays(d.live[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateServerDelays("s0", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.journal.NextLSN(); got != head {
		t.Fatalf("empty refreshes advanced the log: %d → %d", head, got)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lsns, err := wal.SnapshotLSNs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) == 0 || len(lsns) > 2 {
		t.Fatalf("snapshot generations after checkpoint: %v, want 1–2", lsns)
	}
	if newest := lsns[len(lsns)-1]; newest != head-1 {
		t.Fatalf("checkpoint at LSN %d, log head is %d", newest, head)
	}

	want := sessionStateJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Join("late", ClientSpec{Zone: "z0", BandwidthMbps: 0.2, RTTRow: durRow(xrand.New(1), s.NumServers())}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("join after Close returned %v, want ErrSessionClosed", err)
	}
	if s.PQoS() <= 0 {
		t.Fatal("read path dead after Close")
	}

	recovered := reopenDurable(t, dir, "GreZ-GreC", 0)
	if got := sessionStateJSON(t, recovered); got != want {
		t.Fatalf("reopen after Close diverged:\n%s\nvs\n%s", got, want)
	}
	// And the recovered session is live: it accepts events.
	if err := recovered.Join("fresh", ClientSpec{Zone: "z0", BandwidthMbps: 0.2, RTTRow: durRow(xrand.New(2), recovered.NumServers())}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOpenRejectsMismatch: a stored session names its algorithm;
// reopening under a different one must fail loudly rather than continue a
// trajectory the caller did not ask for.
func TestDurableOpenRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := durTestCluster(t, 53).Open("GreZ-GreC", WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(1).Open("RanZ-GreC", WithDurability(dir)); err == nil || !strings.Contains(err.Error(), "algorithm") {
		t.Fatalf("algorithm mismatch accepted: %v", err)
	}
	// The right algorithm recovers — and brings the stored topology, not
	// the (empty) caller cluster.
	rec, err := NewCluster(1).Open("GreZ-GreC", WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumServers() != 4 || rec.NumClients() != 20 {
		t.Fatalf("recovered %d servers / %d clients, want the stored 4/20", rec.NumServers(), rec.NumClients())
	}
}
