package repair

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// journalSurface is the smallest durable surface: it applies events by
// appending their IDs, and OpResolve counts as a full re-solve.
type journalSurface struct {
	ids        []string
	fullSolves int
	// skipSolves makes apply ignore OpResolve, so a replay diverges from
	// the epoch markers the live run wrote.
	skipSolves bool
}

type journalSurfaceSnap struct {
	Version    int      `json:"version"`
	LSN        uint64   `json:"lsn"`
	IDs        []string `json:"ids"`
	FullSolves int      `json:"full_solves"`
}

func (s *journalSurface) config(dir string) JournalConfig {
	return JournalConfig{
		Dir: dir, Version: 1, Prefix: "test", Closed: errors.New("test: closed"),
		Snapshot: func(lsn uint64) ([]byte, error) {
			return json.Marshal(journalSurfaceSnap{Version: 1, LSN: lsn, IDs: s.ids, FullSolves: s.fullSolves})
		},
		FullSolves: func() int { return s.fullSolves },
	}
}

func (s *journalSurface) apply(e *Event) error {
	if e.Op == OpResolve {
		if !s.skipSolves {
			s.fullSolves++
		}
		return nil
	}
	s.ids = append(s.ids, e.ID)
	return nil
}

// recoverSurface reopens dir into a fresh surface.
func recoverSurface(dir string, skipSolves bool) (*journalSurface, error) {
	s := &journalSurface{skipSolves: skipSolves}
	var snap journalSurfaceSnap
	j, err := RecoverJournal(s.config(dir), func(raw []byte) (int, uint64, error) {
		snap = journalSurfaceSnap{}
		err := json.Unmarshal(raw, &snap)
		return snap.Version, snap.LSN, err
	})
	if err != nil {
		return nil, err
	}
	s.ids, s.fullSolves = snap.IDs, snap.FullSolves
	if _, _, err := j.Replay(s.apply); err != nil {
		return nil, err
	}
	return s, nil
}

// TestJournalRecoverFallbackAndEpochs drives the engine through a fake
// surface: recovery equals the live state, falls back to the older
// snapshot generation when the newest is unreadable, and refuses a replay
// whose full re-solves disagree with the log's epoch markers.
func TestJournalRecoverFallbackAndEpochs(t *testing.T) {
	dir := t.TempDir()
	live := &journalSurface{}
	j, err := CreateJournal(live.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	event := func(e *Event) {
		t.Helper()
		if err := j.Apply(e, func() error { return live.apply(e) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		event(&Event{Op: OpJoin, ID: fmt.Sprintf("c%d", i)})
	}
	event(&Event{Op: OpResolve})
	lsn, err := j.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	event(&Event{Op: OpJoin, ID: "late"})

	got, err := recoverSurface(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ids, live.ids) || got.fullSolves != live.fullSolves {
		t.Fatalf("recovered %v/%d, live %v/%d", got.ids, got.fullSolves, live.ids, live.fullSolves)
	}

	// An unreadable newest snapshot falls back to the baseline, whose tail
	// (every record, epoch marker included) is still in the log.
	newest := filepath.Join(dir, fmt.Sprintf("snap-%016d.json", lsn))
	if err := os.WriteFile(newest, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = recoverSurface(dir, false)
	if err != nil {
		t.Fatalf("fallback recovery: %v", err)
	}
	if !reflect.DeepEqual(got.ids, live.ids) || got.fullSolves != live.fullSolves {
		t.Fatalf("fallback recovered %v/%d, live %v/%d", got.ids, got.fullSolves, live.ids, live.fullSolves)
	}

	if _, err := recoverSurface(dir, true); err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("replay skipping the re-solve returned %v, want an epoch divergence", err)
	}
}
