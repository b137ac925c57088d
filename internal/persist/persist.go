// Package persist is the durable-state plane: an fsync-disciplined store
// that lets a redirector or tree root survive kill -9 without forgetting
// the enforcement state the paper assumes lives in memory — the newest
// agreement-set snapshot, the carried per-principal credit, the demand
// estimator, and the last window/epoch position.
//
// The store keeps two kinds of state in one directory:
//
//   - Agreement-set snapshots, one file per version (set-<version>.json),
//     committed by temp-file + fsync + atomic rename so a crash can never
//     leave a half-written snapshot under the final name. Encoding reuses
//     agreement.Set's Encode/DecodeSet, the same bytes the combining tree
//     piggybacks. Lease tables (internal/budget) follow the identical
//     discipline as leases-<version>.json, so long-lived reservations
//     survive a crash with at most one un-synced mutation lost. The newest
//     two versions of each kind are kept — the second is the fallback for
//     a corrupt newest — and a save deletes the rest.
//   - A small append-only window log ("wal") of WindowState records, each
//     framed as [4-byte length][4-byte CRC32][payload] and fsynced on
//     append; the payload is a versioned binary record (see recordVersion).
//     Replay at Open validates frames in order and truncates the log at the
//     first torn or corrupt record, so a crash mid-append costs at most the
//     record being written. The newest valid record wins. A sound frame
//     written under another record version is not corruption: Open refuses
//     the log by name instead of cutting it back to a cold start.
//
// Recovery is therefore bounded by the append cadence: a process that
// persists once per scheduling window loses at most one window of carried
// credit on kill -9.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/agreement"
	"repro/internal/budget"
)

// ErrClosed reports use of a Store after Close.
var ErrClosed = errors.New("persist: store closed")

// walName is the window log's file name inside the state directory.
const walName = "wal"

// frameHeader is the per-record framing overhead: 4-byte little-endian
// payload length followed by a 4-byte CRC32 (IEEE) of the payload.
const frameHeader = 8

// maxRecordBytes bounds a single window record; a length field beyond it is
// treated as corruption (it would otherwise make replay allocate wildly on
// a torn length word).
const maxRecordBytes = 16 << 20

// A frame's payload is one window record, everything little-endian:
//
//	u8   record version
//	i64  window sequence
//	i64  tree epoch
//	u64  acknowledged agreement-set version
//	i64  rollout gate epoch
//	u32  credit rows r, then r × vector
//	vector  provider credit totals
//	vector  demand estimate
//
// where a vector is a u32 count followed by that many float64 as raw
// IEEE-754 bits, and an absent (nil) slice is a zero count. A record must
// parse to its last byte. recordVersion changes whenever this layout does;
// a log holding any other version is refused (OPERATIONS.md §7).
const (
	recordVersion   = 1
	recordFixedSize = 1 + 4*8 + 3*4 // an empty record: version, four ints, three counts
)

// errRecordVersion is what Open returns for a sound frame whose record
// version this build does not read.
var errRecordVersion = errors.New("persist: unsupported window-record version")

// WindowState is one durable window record: everything a restarted
// redirector needs to resume enforcement where it left off — its position
// (window sequence, tree epoch, acknowledged set version) and its carried
// scheduling state (credit matrix, provider credit totals, EWMA demand
// estimate).
type WindowState struct {
	// WindowSeq is the redirector's window counter after the recorded
	// window started.
	WindowSeq int
	// Epoch is the combining-tree epoch the node had reached.
	Epoch int
	// SetVersion is the newest agreement-set version acknowledged.
	SetVersion uint64
	// Gate is the rollout gate epoch attached to that set version (the
	// combining.ConfigUpdate a restarted node reconstructs and
	// re-broadcasts).
	Gate int
	// Credit is the Community credit matrix credits[p][k]; nil in
	// Provider mode.
	Credit [][]float64
	// CreditTotal is the Provider per-principal credit vector; nil in
	// Community mode.
	CreditTotal []float64
	// Estimate is the EWMA per-principal demand estimate
	// (requests/window).
	Estimate []float64
}

// Store is a crash-safe state directory. All methods are safe for
// concurrent use; appends and checkpoints serialize on an internal mutex.
// The store keeps nothing of its callers': a record is encoded into a buffer
// the store owns before AppendWindow returns, and LastWindow decodes a new
// one.
type Store struct {
	dir string

	mu  sync.Mutex
	wal *os.File
	// last is the newest durable record's frame, what Checkpoint rewrites
	// and LastWindow decodes (empty on a cold start); next is where the
	// following append is encoded. The two swap once a frame is on disk.
	last, next []byte
	closed     bool

	// snapMu guards the snapshot versions held on disk, listed once by Open
	// and kept current by every save, ascending.
	snapMu sync.Mutex
	sets   snapshots
	leases snapshots
}

// snapshotsKept is how many versions of each snapshot kind a save leaves on
// disk: the newest, and one to fall back on if the newest will not decode.
const snapshotsKept = 2

// snapshots is one kind of versioned snapshot file (set- or leases-) and the
// versions of it on disk.
type snapshots struct {
	prefix   string
	versions []uint64 // ascending
}

func (k *snapshots) path(dir string, v uint64) string {
	return filepath.Join(dir, k.prefix+strconv.FormatUint(v, 10)+".json")
}

// Open creates (if necessary) and opens the state directory, replaying the
// window log: frames are validated in order, the log is truncated at the
// first torn or corrupt record, and the newest valid record becomes
// LastWindow. An empty or missing directory is a cold start, not an error.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, wal: f, sets: snapshots{prefix: "set-"}, leases: snapshots{prefix: "leases-"}}
	if err := s.listSnapshots(); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// listSnapshots records the snapshot versions already in the directory.
func (s *Store) listSnapshots() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	kinds := []*snapshots{&s.sets, &s.leases}
	for _, e := range entries {
		for _, k := range kinds {
			if v, ok := versionedFileName(e.Name(), k.prefix); ok {
				k.versions = append(k.versions, v)
			}
		}
	}
	for _, k := range kinds {
		slices.Sort(k.versions)
	}
	return nil
}

// replay scans the window log from the start, remembering the newest valid
// record and truncating the file at the first invalid frame.
func (s *Store) replay() error {
	data, err := io.ReadAll(s.wal)
	if err != nil {
		return fmt.Errorf("persist: replay: %w", err)
	}
	valid := 0
	for valid < len(data) {
		_, n, err := decodeFrame(data[valid:])
		if errors.Is(err, errRecordVersion) {
			return fmt.Errorf("%w (%s, offset %d; this build reads version %d)",
				err, filepath.Join(s.dir, walName), valid, recordVersion)
		}
		if err != nil {
			break
		}
		s.last = append(s.last[:0], data[valid:valid+n]...)
		valid += n
	}
	if valid < len(data) {
		// Torn or corrupt tail: drop it so the next append lands on a
		// clean frame boundary.
		if err := s.wal.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("persist: truncate torn tail: %w", err)
		}
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	if _, err := s.wal.Seek(int64(valid), io.SeekStart); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

var errFrame = errors.New("persist: torn or corrupt frame")

// decodeFrame parses one framed record from the front of data and reports
// the bytes it spans. The error is errFrame when the frame is torn (short),
// fails its CRC or does not parse, and wraps errRecordVersion when the frame
// is sound but written under another record version.
func decodeFrame(data []byte) (WindowState, int, error) {
	if len(data) < frameHeader {
		return WindowState{}, 0, errFrame
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if length == 0 || length > maxRecordBytes || frameHeader+int(length) > len(data) {
		return WindowState{}, 0, errFrame
	}
	payload := data[frameHeader : frameHeader+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return WindowState{}, 0, errFrame
	}
	rec, err := decodeRecord(payload)
	return rec, frameHeader + int(length), err
}

// decodeRecord parses a frame's payload. Every count is checked against the
// bytes still unread before anything is allocated for it.
func decodeRecord(b []byte) (WindowState, error) {
	var rec WindowState
	if b[0] != recordVersion {
		return rec, fmt.Errorf("%w %d", errRecordVersion, b[0])
	}
	if len(b) < recordFixedSize {
		return rec, errFrame
	}
	rec.WindowSeq = int(int64(binary.LittleEndian.Uint64(b[1:])))
	rec.Epoch = int(int64(binary.LittleEndian.Uint64(b[9:])))
	rec.SetVersion = binary.LittleEndian.Uint64(b[17:])
	rec.Gate = int(int64(binary.LittleEndian.Uint64(b[25:])))
	rows := int(binary.LittleEndian.Uint32(b[33:]))
	b = b[37:]
	if rows > len(b)/4 {
		return rec, errFrame
	}
	if rows > 0 {
		rec.Credit = make([][]float64, rows)
	}
	var ok bool
	for i := range rec.Credit {
		if rec.Credit[i], b, ok = readVector(b); !ok {
			return rec, errFrame
		}
	}
	if rec.CreditTotal, b, ok = readVector(b); !ok {
		return rec, errFrame
	}
	if rec.Estimate, b, ok = readVector(b); !ok || len(b) != 0 {
		return rec, errFrame
	}
	return rec, nil
}

// readVector parses one counted float64 vector off the front of b (nil for a
// zero count) and returns the rest.
func readVector(b []byte) (v []float64, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, b, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > len(b)/8 {
		return nil, b, false
	}
	if n > 0 {
		v = make([]float64, n)
	}
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, b[8*n:], true
}

// appendFrame appends ws's record, framed with its length and CRC, to dst.
func appendFrame(dst []byte, ws *WindowState) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, recordVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ws.WindowSeq)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ws.Epoch)))
	dst = binary.LittleEndian.AppendUint64(dst, ws.SetVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ws.Gate)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ws.Credit)))
	for _, row := range ws.Credit {
		dst = appendVector(dst, row)
	}
	dst = appendVector(dst, ws.CreditTotal)
	dst = appendVector(dst, ws.Estimate)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

func appendVector(dst []byte, v []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// AppendWindow durably appends one window record (write + fsync). The
// record becomes the new LastWindow. ws is encoded before AppendWindow
// returns; the store keeps no reference to its slices.
func (s *Store) AppendWindow(ws WindowState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.next = appendFrame(s.next[:0], &ws)
	if len(s.next)-frameHeader > maxRecordBytes {
		return fmt.Errorf("persist: append: record of %d bytes exceeds the %d-byte limit", len(s.next)-frameHeader, maxRecordBytes)
	}
	if _, err := s.wal.Write(s.next); err != nil {
		return fmt.Errorf("persist: append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("persist: append: %w", err)
	}
	s.last, s.next = s.next, s.last
	return nil
}

// LastWindow returns the newest valid window record (replayed at Open or
// appended since), decoded into slices the caller owns; ok is false on a
// cold start.
func (s *Store) LastWindow() (WindowState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.last) == 0 {
		return WindowState{}, false
	}
	// The frame was validated when it was replayed, or encoded here.
	rec, _, err := decodeFrame(s.last)
	return rec, err == nil
}

// Checkpoint compacts the window log down to its newest record, committing
// the compacted log by atomic rename. Safe to run concurrently with
// AppendWindow; a no-op on a cold store.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.last) == 0 {
		return nil
	}
	buf := s.last
	path := filepath.Join(s.dir, walName)
	tmp, err := os.CreateTemp(s.dir, walName+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// Swap the open handle to the compacted log so subsequent appends
	// extend it, not the unlinked original.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	s.wal.Close()
	s.wal = f
	return nil
}

// SaveSet durably stores an agreement-set snapshot as set-<version>.json
// (temp file + fsync + atomic rename + directory fsync), then deletes all but
// the newest two set snapshots. Snapshots are immutable per version:
// re-saving a held version, or saving one older than both held, is a no-op.
func (s *Store) SaveSet(set *agreement.Set) error {
	if set == nil {
		return errors.New("persist: nil set")
	}
	return s.save(&s.sets, set.Version, set.Encode)
}

// SaveLeases durably stores a lease-table snapshot as leases-<version>.json,
// under the same commit discipline and retention as SaveSet. A crash between
// a lease mutation and this save costs at most that one mutation — the same
// bounded loss as the window log.
func (s *Store) SaveLeases(t *budget.Table) error {
	if t == nil {
		return errors.New("persist: nil lease table")
	}
	return s.save(&s.leases, t.Version, func() ([]byte, error) { return budget.EncodeTable(t) })
}

// save commits version v of kind k and prunes k to the newest snapshotsKept
// versions.
func (s *Store) save(k *snapshots, v uint64, encode func() ([]byte, error)) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	at, held := slices.BinarySearch(k.versions, v)
	if held || len(k.versions)-at >= snapshotsKept {
		return nil
	}
	data, err := encode()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	kind := strings.TrimSuffix(k.prefix, "-")
	if err := s.commitFile(k.path(s.dir, v), kind, data); err != nil {
		return err
	}
	k.versions = slices.Insert(k.versions, at, v)
	for len(k.versions) > snapshotsKept {
		if err := os.Remove(k.path(s.dir, k.versions[0])); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("persist: prune %s: %w", kind, err)
		}
		k.versions = k.versions[1:]
	}
	return nil
}

// commitFile durably writes data under path by temp file + fsync + atomic
// rename + directory fsync, the discipline every versioned snapshot shares.
func (s *Store) commitFile(path, kind string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, kind+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: save %s: %w", kind, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: save %s: %w", kind, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: save %s: %w", kind, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: save %s: %w", kind, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: save %s: %w", kind, err)
	}
	return syncDir(s.dir)
}

// LoadNewestLeases returns the newest decodable lease table, or (nil, nil)
// on a cold start. Like LoadNewestSet it reads newest-first and stops at the
// first file that decodes.
func (s *Store) LoadNewestLeases() (*budget.Table, error) {
	return loadNewest(s, &s.leases, func(data []byte, v uint64) (*budget.Table, bool) {
		t, err := budget.DecodeTable(data)
		return t, err == nil && t.Version == v
	})
}

// LoadNewestSet returns the newest decodable agreement-set snapshot, or
// (nil, nil) on a cold start. Snapshots are read newest-version-first and the
// first that decodes wins; an undecodable one is skipped, not fatal — a valid
// older version beats refusing to start. Only the versions found by Open or
// saved since are considered, so the cost does not grow with the history.
func (s *Store) LoadNewestSet() (*agreement.Set, error) {
	return loadNewest(s, &s.sets, func(data []byte, v uint64) (*agreement.Set, bool) {
		set, err := agreement.DecodeSet(data)
		return set, err == nil && set.Version == v
	})
}

// loadNewest decodes k's snapshots newest-first and returns the first good one.
func loadNewest[T any](s *Store, k *snapshots, decode func(data []byte, v uint64) (*T, bool)) (*T, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for i := len(k.versions) - 1; i >= 0; i-- {
		v := k.versions[i]
		data, err := os.ReadFile(k.path(s.dir, v))
		if err != nil {
			continue
		}
		if t, ok := decode(data, v); ok {
			return t, nil
		}
	}
	return nil, nil
}

// Dir returns the store's state directory.
func (s *Store) Dir() string { return s.dir }

// Close fsyncs and closes the window log. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("persist: %w", err)
	}
	return s.wal.Close()
}

// versionedFileName parses "<prefix><version>.json"; ok is false otherwise.
func versionedFileName(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(".json")], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that refuse directory fsync (some CI mounts) are
// tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
