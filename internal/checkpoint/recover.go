package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repligc/internal/core"
	"repligc/internal/heap"
)

// Restored is the outcome of a successful recovery: a rebuilt heap plus
// everything needed to re-attach a mutator and collector and continue the
// run. Its Fingerprint has already been verified against the commit footer,
// so the heap image is bit-identical to the state the writer hashed live at
// commit time.
type Restored struct {
	Epoch       uint64
	Fingerprint uint64
	Cfg         heap.Config
	Heap        *heap.Heap

	Roots      []heap.Value
	LogBase    int64
	LogEntries []core.LogEntry

	BytesAllocated     int64
	LogWrites          int64
	MinorLogCursor     int64
	PromotedSinceMajor int64
	PromoHighWater     int64

	// Recorded space geometry, re-applied by Attach (collector
	// construction clobbers the nursery's soft limit).
	nurseryHi, nurseryNext uint64
	fromHi, fromNext       uint64
	toHi, toNext           uint64
}

// RootArray is the flat root source a recovered run starts from: the
// checkpointed root slots in their original visit order. The original run's
// structured root sources (VM registers, driver tables) do not survive a
// crash; their slots do.
type RootArray struct {
	Slots []heap.Value
}

// VisitRoots implements core.RootSource.
func (ra *RootArray) VisitRoots(v core.RootVisitor) {
	for i := range ra.Slots {
		v(&ra.Slots[i])
	}
}

// Attach wires a freshly constructed mutator/collector pair onto the
// restored state. m must have been built over r.Heap; gc must be a new
// collector over the same heap. After Attach the pair is equivalent to the
// checkpointed run at its commit point: same heap words, same retained
// mutation log, same roots (exposed through r's RootArray, also returned),
// same scheduling state.
func (r *Restored) Attach(m *core.Mutator, gc *core.Replicating) *RootArray {
	// Collector construction re-applied cfg.NurseryBytes as the nursery
	// soft limit; put the recorded geometry back.
	r.applyGeometry()
	m.Log.Restore(r.LogBase, r.LogEntries)
	m.BytesAllocated = r.BytesAllocated
	m.LogWrites = r.LogWrites
	ra := &RootArray{Slots: append([]heap.Value(nil), r.Roots...)}
	m.Roots.Register(ra)
	gc.RestoreScheduling(r.MinorLogCursor, r.PromotedSinceMajor, r.PromoHighWater)
	return ra
}

// applyGeometry writes the recorded space cursors and soft limits into the
// reconstructed heap's Space structs.
func (r *Restored) applyGeometry() {
	h := r.Heap
	h.Nursery.Hi, h.Nursery.Next = r.nurseryHi, r.nurseryNext
	h.OldFrom().Hi, h.OldFrom().Next = r.fromHi, r.fromNext
	h.OldTo().Hi, h.OldTo().Next = r.toHi, r.toNext
}

// Epochs lists the epoch numbers in dir that have both artifact files,
// ascending. Missing directories list as empty.
//
//gclint:io scans the artifact directory for snapshot/WAL pairs
func Epochs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	snaps := map[uint64]bool{}
	var out []uint64
	for _, ent := range ents {
		var epoch uint64
		if n, _ := fmt.Sscanf(ent.Name(), "snap-%d.ckpt", &epoch); n == 1 && filepath.Ext(ent.Name()) == ".ckpt" {
			snaps[epoch] = true
		}
	}
	for _, ent := range ents {
		var epoch uint64
		if n, _ := fmt.Sscanf(ent.Name(), "wal-%d.ckpt", &epoch); n == 1 && filepath.Ext(ent.Name()) == ".ckpt" && snaps[epoch] {
			out = append(out, epoch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Recover loads the newest recoverable epoch in dir. Damaged epochs are
// skipped (newest first); if none survives, the returned error is a
// *CorruptError wrapping every per-epoch failure. Recovery never returns a
// heap whose fingerprint does not match its commit footer.
func Recover(dir string) (*Restored, error) {
	epochs, err := Epochs(dir)
	if err != nil {
		return nil, &CorruptError{Path: dir, Detail: "unreadable artifact directory", Err: err}
	}
	if len(epochs) == 0 {
		return nil, corrupt(dir, "no checkpoint epochs")
	}
	var fails []error
	for i := len(epochs) - 1; i >= 0; i-- {
		r, err := RecoverEpoch(dir, epochs[i])
		if err == nil {
			return r, nil
		}
		fails = append(fails, err)
	}
	return nil, &CorruptError{Path: dir, Detail: "no recoverable epoch", Err: errors.Join(fails...)}
}

// RecoverEpoch loads one specific epoch, verifying every record checksum,
// the record ordinals, both completeness footers, and finally the state
// fingerprint against the commit record.
func RecoverEpoch(dir string, epoch uint64) (*Restored, error) {
	snapPath := filepath.Join(dir, fmt.Sprintf("snap-%08d.ckpt", epoch))
	walPath := filepath.Join(dir, fmt.Sprintf("wal-%08d.ckpt", epoch))

	r := &Restored{Epoch: epoch}
	var walBase int64
	if err := readSnapshot(snapPath, r, &walBase); err != nil {
		return nil, err
	}
	if err := readWAL(walPath, r); err != nil {
		return nil, err
	}
	r.applyGeometry()

	// Re-derive the canonical state tuple from the restored image and
	// check it against the fingerprint the writer computed from the live
	// heap. Any inconsistency the checksums could not see — a patch
	// missed, a segment applied to the wrong offset — surfaces here.
	st := r.restoredState()
	if got := st.fingerprint(); got != r.Fingerprint {
		return nil, corrupt(walPath, "state fingerprint %#x does not match commit record %#x", got, r.Fingerprint)
	}
	return r, nil
}

// restoredState rebuilds the canonical tuple from a restored image, in
// exactly the shape captureState builds it from a live run.
func (r *Restored) restoredState() *state {
	h := r.Heap
	return &state{
		cfg:                r.Cfg,
		fromOldB:           h.OldFrom().Name == "oldB",
		nurseryHi:          r.nurseryHi,
		nurseryNext:        r.nurseryNext,
		fromHi:             r.fromHi,
		fromNext:           r.fromNext,
		toHi:               r.toHi,
		toNext:             r.toNext,
		fromWords:          h.Arena[h.OldFrom().Lo:r.fromNext],
		nurseryWords:       h.Arena[h.Nursery.Lo:r.nurseryNext],
		roots:              r.Roots,
		logBase:            r.LogBase,
		logEntries:         r.LogEntries,
		bytesAllocated:     r.BytesAllocated,
		logWrites:          r.LogWrites,
		minorLogCursor:     r.MinorLogCursor,
		promotedSinceMajor: r.PromotedSinceMajor,
		promoHighWater:     r.PromoHighWater,
	}
}

// implausibleConfig reports why a persisted heap config cannot have come
// from a Writer, or "" when it can. Every size, and the arena they imply,
// must fit heap.MaxArenaBytes, so a CRC-valid hostile header is rejected
// before heap.New is asked for an allocation the host cannot survive.
func implausibleConfig(cfg heap.Config) string {
	switch {
	case cfg.NurseryBytes <= 0 || cfg.OldSemiBytes <= 0:
		return "non-positive space size"
	case cfg.NurseryCapBytes < cfg.NurseryBytes:
		return "nursery cap below the initial nursery"
	case !heap.ArenaFits(cfg.NurseryCapBytes, cfg.OldSemiBytes):
		return "arena larger than heap.MaxArenaBytes"
	}
	return ""
}

// readSnapshot parses the snapshot file into a fresh heap.
//
//gclint:io reads the epoch's snapshot file
func readSnapshot(path string, r *Restored, walBase *int64) error {
	f, err := os.Open(path)
	if err != nil {
		return &CorruptError{Path: path, Detail: "unreadable snapshot", Err: err}
	}
	defer f.Close()
	rr := newRecordReader(bufio.NewReaderSize(f, 1<<16), path)
	if err := rr.readMagic(snapMagic); err != nil {
		return err
	}

	typ, payload, err := rr.next()
	if err != nil {
		return asCorrupt(path, err)
	}
	if typ != recSnapHeader {
		return corrupt(path, "first record type %d, want snapshot header", typ)
	}
	d := dec{b: payload, path: path}
	ver := d.u64()
	epoch := d.u64()
	*walBase = d.i64()
	cfg := heap.Config{
		NurseryBytes:    d.i64(),
		NurseryCapBytes: d.i64(),
		OldSemiBytes:    d.i64(),
	}
	fromOldB := d.u8() == 1
	if err := d.done(); err != nil {
		return err
	}
	if ver != version {
		return corrupt(path, "format version %d, want %d", ver, version)
	}
	if epoch != r.Epoch {
		return corrupt(path, "snapshot claims epoch %d, file is named for %d", epoch, r.Epoch)
	}
	if why := implausibleConfig(cfg); why != "" {
		return corrupt(path, "implausible heap config %+v: %s", cfg, why)
	}
	r.Cfg = cfg
	r.Heap = heap.New(cfg)
	if fromOldB {
		r.Heap.SwapOld()
	}

	segs := 0
	for {
		typ, payload, err := rr.next()
		if err != nil {
			return asCorrupt(path, err)
		}
		switch typ {
		case recSegment:
			d := dec{b: payload, path: path}
			space := d.u8()
			start := d.u64()
			count := d.u64()
			var sp *heap.Space
			switch space {
			case spaceOldFrom:
				sp = r.Heap.OldFrom()
			case spaceNursery:
				sp = &r.Heap.Nursery
			default:
				return corrupt(path, "segment %d: unknown space id %d", segs, space)
			}
			if start < sp.Lo || count > sp.Cap-start {
				return corrupt(path, "segment %d: range [%d,%d) outside space %s", segs, start, start+count, sp.Name)
			}
			if uint64(len(d.b)) != count*heap.BytesPerWord {
				return corrupt(path, "segment %d: payload %d bytes, want %d words", segs, len(d.b), count)
			}
			for i := uint64(0); i < count; i++ {
				r.Heap.Arena[start+i] = heap.Value(d.u64())
			}
			if err := d.done(); err != nil {
				return err
			}
			segs++
		case recSnapFooter:
			d := dec{b: payload, path: path}
			want := d.u64()
			if err := d.done(); err != nil {
				return err
			}
			if uint64(segs) != want {
				return corrupt(path, "footer claims %d segments, read %d", want, segs)
			}
			if _, _, err := rr.next(); err != io.EOF {
				return corrupt(path, "trailing data after snapshot footer")
			}
			return nil
		default:
			return corrupt(path, "unexpected record type %d in snapshot body", typ)
		}
	}
}

// readWAL parses the WAL file and applies it to the restored heap.
//
//gclint:io reads the epoch's WAL file
func readWAL(path string, r *Restored) error {
	f, err := os.Open(path)
	if err != nil {
		return &CorruptError{Path: path, Detail: "unreadable WAL", Err: err}
	}
	defer f.Close()
	rr := newRecordReader(bufio.NewReaderSize(f, 1<<16), path)
	if err := rr.readMagic(walMagic); err != nil {
		return err
	}

	// The records must appear in the fixed order commit writes them.
	want := []uint8{recWALHeader, recSpaces, recPatch, recLog, recRoots, recSched, recCommit}
	for _, wantTyp := range want {
		typ, payload, err := rr.next()
		if err != nil {
			return asCorrupt(path, err)
		}
		if typ != wantTyp {
			return corrupt(path, "record type %d, want %d", typ, wantTyp)
		}
		d := dec{b: payload, path: path}
		switch typ {
		case recWALHeader:
			if epoch := d.u64(); epoch != r.Epoch {
				return corrupt(path, "WAL claims epoch %d, file is named for %d", epoch, r.Epoch)
			}
		case recSpaces:
			r.nurseryHi, r.nurseryNext = d.u64(), d.u64()
			r.fromHi, r.fromNext = d.u64(), d.u64()
			r.toHi, r.toNext = d.u64(), d.u64()
			if err := checkSpace(path, "nursery", &r.Heap.Nursery, r.nurseryHi, r.nurseryNext); err != nil {
				return err
			}
			if err := checkSpace(path, "old-from", r.Heap.OldFrom(), r.fromHi, r.fromNext); err != nil {
				return err
			}
			if err := checkSpace(path, "old-to", r.Heap.OldTo(), r.toHi, r.toNext); err != nil {
				return err
			}
		case recPatch:
			n := d.u64()
			if n > uint64(len(r.Heap.Arena)) {
				return corrupt(path, "implausible patch count %d", n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				idx := d.u64()
				val := heap.Value(d.u64())
				if idx >= uint64(len(r.Heap.Arena)) {
					return corrupt(path, "patch %d: arena index %d out of range", i, idx)
				}
				r.Heap.Arena[idx] = val
			}
		case recLog:
			r.LogBase = d.i64()
			n := d.u64()
			if n > 1<<28 {
				return corrupt(path, "implausible log entry count %d", n)
			}
			r.LogEntries = make([]core.LogEntry, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				e := core.LogEntry{
					Obj:  heap.Value(d.u64()),
					Slot: int32(uint32(d.u64())),
					Len:  int32(uint32(d.u64())),
				}
				e.Byte = d.u8() == 1
				r.LogEntries = append(r.LogEntries, e)
			}
		case recRoots:
			n := d.u64()
			if n > 1<<28 {
				return corrupt(path, "implausible root count %d", n)
			}
			r.Roots = make([]heap.Value, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				r.Roots = append(r.Roots, heap.Value(d.u64()))
			}
		case recSched:
			r.BytesAllocated = d.i64()
			r.LogWrites = d.i64()
			r.MinorLogCursor = d.i64()
			r.PromotedSinceMajor = d.i64()
			r.PromoHighWater = d.i64()
		case recCommit:
			r.Fingerprint = d.u64()
		}
		if err := d.done(); err != nil {
			return err
		}
	}
	if _, _, err := rr.next(); err != io.EOF {
		return corrupt(path, "trailing data after commit record")
	}
	return nil
}

// checkSpace validates recorded geometry against the reconstructed space.
func checkSpace(path, name string, sp *heap.Space, hi, next uint64) error {
	if hi < sp.Lo || hi > sp.Cap || next < sp.Lo || next > hi {
		return corrupt(path, "%s geometry hi=%d next=%d outside [%d,%d]", name, hi, next, sp.Lo, sp.Cap)
	}
	return nil
}

// asCorrupt maps a record-reader error (including bare EOF on a file that
// needed more records) to a *CorruptError.
func asCorrupt(path string, err error) error {
	if err == io.EOF {
		return corrupt(path, "file ends before its completeness footer")
	}
	return err
}
