// Rotating event-log chaos: the run store is dscweaverd's one on-disk
// event log, and it rotates by size — the active segment seals and a
// fresh one opens whenever an append would push it past SegmentBytes.
// This suite drives that rotation through the injector's faulting file
// layer. The contract under disk faults: the store degrades instead of
// failing, the first fault surfaces at Close, and a reopen on a healthy
// disk replays every run that finished before the fault byte for byte,
// while no run whose finish was lost reads as finished.
package chaos_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"dscweaver/internal/chaos"
	"dscweaver/internal/obs"
	"dscweaver/internal/store"
)

func TestChaosRotatingLog(t *testing.T) {
	const (
		runs   = 60
		perRun = 8
	)
	var sweptFaults, sweptRotations int64
	forEachSeed(t, func(t *testing.T, seed int64) {
		inj := chaos.New(chaos.Config{
			Seed:            seed,
			DiskErrorP:      0.03,
			DiskShortWriteP: 0.03,
		})
		dir := t.TempDir()
		// Segments small enough that a run or two fills one, retention
		// large enough that compaction never deletes a segment — every
		// finished run must be accountable after the reopen.
		opts := store.Options{SegmentBytes: 2 << 10, MaxSegments: 1 << 10}
		faulty := opts
		faulty.OpenFile = inj.OpenFile(nil)
		st, err := store.Open(dir, faulty)
		if err != nil {
			t.Fatalf("seed %d: faulty disk must not fail Open: %v", seed, err)
		}
		acked := map[string][]byte{} // finished run id → its JSONL event log
		for i := 1; i <= runs; i++ {
			id := fmt.Sprintf("weave-%06d", i)
			app := st.Begin(id, int64(i), "weave", time.Now())
			var log bytes.Buffer
			for j := 1; j <= perRun; j++ {
				e := obs.Event{Layer: obs.LayerEngine, Kind: obs.EvActivityStart,
					Activity: fmt.Sprintf("a_%03d", j), Seq: j}
				app.Emit(e)
				raw, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				log.Write(raw)
				log.WriteByte('\n')
			}
			app.Finish("P", nil)
			if m, ok := st.Get(id); ok && m.Done {
				acked[id] = log.Bytes()
			}
		}
		closeErr := st.Close()
		s := inj.Stats()
		faults := s.DiskErrors + s.DiskShortWrites
		sweptFaults += faults

		// Degrade, never fail: one injected fault latches the store, and
		// the first one surfaces at Close for operators.
		if st.Degraded() != (faults > 0) {
			t.Errorf("seed %d: Degraded() = %v with %d injected faults", seed, st.Degraded(), faults)
		}
		if (closeErr != nil) != (faults > 0) {
			t.Errorf("seed %d: Close() = %v with %d injected faults", seed, closeErr, faults)
		}
		if faults == 0 && len(acked) != runs {
			t.Errorf("seed %d: %d of %d runs finished on a clean disk", seed, len(acked), runs)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sweptRotations += int64(len(segs) - 1)

		// Reopen on the real filesystem: recovery quarantines a torn
		// tail, and every acknowledged run replays exactly.
		re, err := store.Open(dir, opts)
		if err != nil {
			t.Fatalf("seed %d: reopen after faults: %v", seed, err)
		}
		defer re.Close()
		for id, want := range acked {
			m, ok := re.Get(id)
			if !ok || !m.Done || !m.OK || m.Events != perRun {
				t.Errorf("seed %d: finished run %s reopened as %+v (found %v)", seed, id, m, ok)
				continue
			}
			evs, err := re.Events(id)
			if err != nil {
				t.Errorf("seed %d: events %s: %v", seed, id, err)
				continue
			}
			var got bytes.Buffer
			for _, raw := range evs {
				got.Write(raw)
				got.WriteByte('\n')
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("seed %d: run %s replays\n%s\nwant\n%s", seed, id, got.Bytes(), want)
			}
		}
		for _, m := range re.ListRange(time.Time{}, time.Time{}, 0) {
			if _, ok := acked[m.ID]; m.Done && !ok {
				t.Errorf("seed %d: run %s reads as finished, but its finish was lost to a fault", seed, m.ID)
			}
		}
		t.Logf("%d faults, %d acknowledged runs, %d segments", faults, len(acked), len(segs))
	})
	if len(seeds()) > 1 && sweptFaults == 0 {
		t.Error("sweep injected no disk faults — probabilities too low to test anything")
	}
	if len(seeds()) > 1 && sweptRotations == 0 {
		t.Error("sweep never rotated a segment — rotation untested")
	}
}
