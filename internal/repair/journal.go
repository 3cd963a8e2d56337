package repair

import (
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"dvecap/internal/wal"
	"dvecap/telemetry"
)

// ErrJournalFailed reports a journal whose log has failed (a write, fsync
// or rotation went wrong) and refuses every later event: fail-stop. The
// surface's state is still the acknowledged prefix, which reopening the
// data directory recovers.
var ErrJournalFailed = wal.ErrFailed

// JournalConfig describes one durable surface (a cluster session, a
// director) to its Journal. The surface owns its event vocabulary, its
// snapshot payload and how an event applies; the journal owns getting
// them onto disk and back.
type JournalConfig struct {
	Dir           string // data directory: log segments and snapshots
	SnapshotEvery int    // auto-checkpoint cadence in applied events; 0 = explicit only
	Version       int    // newest snapshot schema; recovery reads 1..Version
	Prefix        string // opens every error message ("dvecap", "director")
	Closed        error  // what events get after Close
	// Snapshot renders the surface's full durable state as of lsn.
	Snapshot func(lsn uint64) ([]byte, error)
	// FullSolves reports the planner's full-solve count; a change across
	// an applied event gets an advisory epoch marker.
	FullSolves func() int
	Span       func(op string, attrs ...any) func(*error) // optional checkpoint trace span
	Telemetry  *telemetry.Registry                        // optional WAL/snapshot/recovery series
	Logger     *slog.Logger                               // optional debug line per checkpoint
}

// Journal is the write-ahead journal of a durable surface (DESIGN.md
// §11): every event is appended and synced BEFORE the surface applies it,
// snapshots bound replay, and recovery replays the log tail through the
// surface's live mutators. A nil *Journal is the non-durable case: every
// method is a no-op behind one nil check. The surface's lock guards a
// Journal, except Failed, which any goroutine may call.
type Journal struct {
	cfg            JournalConfig
	w              *wal.Writer
	sinceSnap      int    // events since the last checkpoint
	lastFullSolves int    // epoch detection
	snapLSN        uint64 // the snapshot a recovering journal replays after
	replaying      bool   // recovery is re-applying the log: journal nothing
	closed         bool
	failed         atomic.Bool              // mirrors w.Err() for lock-free readers (readyz)
	hook           func(point string) error // crash injection, tests only
	snapDur        *telemetry.Histogram
	snapBytes      *telemetry.Counter
	snaps          *telemetry.Counter
}

func newJournal(cfg JournalConfig) *Journal {
	j := &Journal{cfg: cfg}
	if reg := cfg.Telemetry; reg != nil {
		j.snapDur = reg.Histogram("dvecap_snapshot_write_duration_seconds",
			"Wall time to render and durably write one session snapshot.", nil)
		j.snapBytes = reg.Counter("dvecap_snapshot_bytes_total", "Snapshot payload bytes written by checkpoints.")
		j.snaps = reg.Counter("dvecap_snapshots_total", "Session snapshots written (explicit and auto checkpoints).")
	}
	return j
}

// CreateJournal starts the journal of a freshly built surface: baseline
// snapshot first, then the log, so there is never a log without a
// snapshot under it (a crash between the two leaves either nothing or a
// snapshot-only directory, both recoverable).
func CreateJournal(cfg JournalConfig) (*Journal, error) {
	j := newJournal(cfg)
	j.lastFullSolves = cfg.FullSolves()
	base, err := cfg.Snapshot(0)
	if err != nil {
		return nil, err
	}
	if err := wal.WriteSnapshot(cfg.Dir, 0, base, j.crash); err != nil {
		return nil, err
	}
	if j.w, err = j.open(0); err != nil {
		return nil, err
	}
	return j, nil
}

// RecoverJournal picks the snapshot recovery resumes from: the newest one
// that reads, decodes, has a version in 1..cfg.Version and declares the
// LSN its file name says, else an older generation. decode parses a
// candidate into the surface's snapshot type; on success the last payload
// it saw is the chosen one. The journal comes back replaying: the surface
// restores itself from the snapshot, then calls Replay.
func RecoverJournal(cfg JournalConfig, decode func(raw []byte) (version int, lsn uint64, err error)) (*Journal, error) {
	lsns, err := wal.SnapshotLSNs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(lsns) == 0 {
		return nil, fmt.Errorf("%s: %s holds log segments but no snapshot", cfg.Prefix, cfg.Dir)
	}
	var lastErr error
	for x := len(lsns) - 1; x >= 0; x-- {
		raw, err := wal.ReadSnapshot(cfg.Dir, lsns[x])
		if err != nil {
			lastErr = err
			continue
		}
		switch version, lsn, err := decode(raw); {
		case err != nil:
			lastErr = fmt.Errorf("snapshot %d: %w", lsns[x], err)
		case version < 1 || version > cfg.Version:
			lastErr = fmt.Errorf("snapshot %d has version %d, this build reads 1..%d", lsns[x], version, cfg.Version)
		case lsn != lsns[x]:
			lastErr = fmt.Errorf("snapshot %d declares LSN %d", lsns[x], lsn)
		default:
			j := newJournal(cfg)
			j.snapLSN, j.replaying = lsn, true
			return j, nil
		}
	}
	return nil, fmt.Errorf("%s: no usable snapshot in %s: %w", cfg.Prefix, cfg.Dir, lastErr)
}

// Replay re-applies the log tail after the recovered snapshot through
// apply (the surface's dispatch of one event onto its live mutators;
// epoch markers are checked here, not passed on), opens the log for
// appending and sets the recovery gauges. It returns the events replayed
// (epoch markers excluded) and the replay's wall time.
func (j *Journal) Replay(apply func(*Event) error) (int, time.Duration, error) {
	j.lastFullSolves = j.cfg.FullSolves()
	start := time.Now()
	replayed := 0
	if _, err := wal.Replay(j.cfg.Dir, j.snapLSN, func(lsn uint64, payload []byte) error {
		e, err := DecodeEvent(payload)
		if err != nil {
			return fmt.Errorf("%s: LSN %d: %w", j.cfg.Prefix, lsn, err)
		}
		if e.Op == OpEpoch {
			// The journal's own marker: the rebuilt trajectory must pass
			// through the same full re-solves, or log and build disagree.
			if fs := j.cfg.FullSolves(); fs != e.FullSolves {
				return fmt.Errorf("%s: replaying LSN %d: replay diverged: %d full solves at epoch marker expecting %d", j.cfg.Prefix, lsn, fs, e.FullSolves)
			}
			return nil
		}
		replayed++
		if err := apply(e); err != nil {
			return fmt.Errorf("%s: replaying LSN %d: %w", j.cfg.Prefix, lsn, err)
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	var err error
	if j.w, err = j.open(j.snapLSN); err != nil {
		return 0, 0, err
	}
	j.replaying, j.sinceSnap = false, replayed
	took := time.Since(start)
	if reg := j.cfg.Telemetry; reg != nil {
		reg.Gauge("dvecap_recovery_duration_seconds",
			"Wall time of the last crash recovery (snapshot load excluded, log replay included).").Set(took.Seconds())
		reg.Gauge("dvecap_recovery_events_replayed",
			"Log-tail events the last crash recovery replayed.").Set(float64(replayed))
	}
	return replayed, took, nil
}

func (j *Journal) open(base uint64) (*wal.Writer, error) {
	return wal.Open(j.cfg.Dir, base, wal.Options{CrashHook: j.crash, Telemetry: j.cfg.Telemetry})
}

// crash consults the crash-injection hook; going through the journal lets
// tests install the hook after the open.
func (j *Journal) crash(point string) error {
	if j.hook == nil {
		return nil
	}
	return j.hook(point)
}

// SetCrashHook installs the hook consulted at the WAL's and the snapshot
// writer's named crash points. Fault-injection harness only.
func (j *Journal) SetCrashHook(hook func(point string) error) { j.hook = hook }

// NextLSN returns the LSN the next journaled record will receive.
func (j *Journal) NextLSN() uint64 { return j.w.NextLSN() }

// Failed reports whether the log has failed and refuses events; false on
// a nil journal. Safe for concurrent use.
func (j *Journal) Failed() bool { return j != nil && j.failed.Load() }

func (j *Journal) append(op EventOp, payload []byte) error {
	if _, err := j.w.Append(payload); err != nil {
		if errors.Is(err, wal.ErrFailed) {
			j.failed.Store(true)
		}
		return fmt.Errorf("%s: journal %s: %w", j.cfg.Prefix, op, err)
	}
	return nil
}

// Record appends the event and syncs it; call it BEFORE applying the
// event. An event the apply then rejects replays as rejected too (same
// inputs, same validation), so the log may hold events that changed
// nothing.
func (j *Journal) Record(e *Event) error {
	if j == nil || j.replaying {
		return nil
	}
	if j.closed {
		return j.cfg.Closed
	}
	payload, err := e.Encode()
	if err != nil {
		return err
	}
	return j.append(e.Op, payload)
}

// Apply is the journal-before-apply discipline in one call: Record e,
// run apply, and on success run the post-apply bookkeeping (Applied).
func (j *Journal) Apply(e *Event, apply func() error) error {
	if err := j.Record(e); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	return j.Applied()
}

// Applied runs the bookkeeping due after an event applied: an epoch
// marker when the planner ran a full re-solve, and the auto-checkpoint
// cadence. While replaying it only tracks the epoch counter (Replay
// checks the markers already in the log).
func (j *Journal) Applied() error {
	if j == nil {
		return nil
	}
	if fs := j.cfg.FullSolves(); fs != j.lastFullSolves {
		j.lastFullSolves = fs
		if !j.replaying {
			payload, err := (&Event{Op: OpEpoch, FullSolves: fs}).Encode()
			if err != nil {
				return err
			}
			if err := j.append(OpEpoch, payload); err != nil {
				return err
			}
		}
	}
	if j.replaying {
		return nil
	}
	j.sinceSnap++
	if j.cfg.SnapshotEvery > 0 && j.sinceSnap >= j.cfg.SnapshotEvery {
		_, err := j.Checkpoint()
		return err
	}
	return nil
}

// Checkpoint snapshots the surface at the log head, truncates the
// segments the snapshot supersedes and prunes to two generations (the new
// one plus a fallback with its tail intact), returning the snapshot's
// LSN. (0, nil) on a nil journal; a failed log refuses it.
func (j *Journal) Checkpoint() (lsn uint64, err error) {
	if j == nil {
		return 0, nil
	}
	if j.closed {
		return 0, j.cfg.Closed
	}
	if j.cfg.Span != nil {
		defer j.cfg.Span("checkpoint")(&err)
	}
	if err := j.w.Err(); err != nil {
		return 0, fmt.Errorf("%s: checkpoint: %w", j.cfg.Prefix, err)
	}
	start := time.Now()
	lsn = j.w.NextLSN() - 1
	payload, err := j.cfg.Snapshot(lsn)
	if err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshot(j.cfg.Dir, lsn, payload, j.crash); err != nil {
		return 0, err
	}
	if j.snapDur != nil {
		// Render + durable write; truncation and pruning are cleanup.
		j.snapDur.Observe(time.Since(start).Seconds())
		j.snapBytes.Add(uint64(len(payload)))
		j.snaps.Inc()
	}
	if err := j.w.TruncateThrough(lsn); err != nil {
		return 0, err
	}
	if err := wal.PruneSnapshots(j.cfg.Dir, 2); err != nil {
		return 0, err
	}
	j.sinceSnap = 0
	if j.cfg.Logger != nil {
		j.cfg.Logger.Debug("checkpoint written", "lsn", lsn, "bytes", len(payload))
	}
	return lsn, nil
}

// Close checkpoints and releases the log; later events get cfg.Closed. A
// no-op on a nil journal and on second call. A failed log is closed
// without a snapshot and Close returns the failure.
func (j *Journal) Close() error {
	if j == nil || j.closed {
		return nil
	}
	_, err := j.Checkpoint()
	j.closed = true
	if cerr := j.w.Close(); err == nil {
		err = cerr
	}
	return err
}
