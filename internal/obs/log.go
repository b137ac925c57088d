package obs

import (
	"io"
	"log/slog"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities: slog's levels under the names callers use.
type Level = slog.Level

// Severity levels, in ascending order.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
	// LevelOff is above every level a line is logged at (Nop loggers).
	LevelOff Level = math.MaxInt32
)

// NewLogger builds the repo's one logfmt logger: a slog text handler writing
// lines at or above min to w, as
// `t=<RFC 3339 UTC> level=warn msg="..." comp=sched key=value ...`.
// Components tag their lines with With("comp", name).
func NewLogger(w io.Writer, min Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: min, ReplaceAttr: logfmtKeys}))
}

// logfmtKeys renames slog's time and level attributes to t= (UTC,
// RFC 3339 with nanoseconds) and a lowercase level=.
func logfmtKeys(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		return slog.String("t", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case slog.LevelKey:
		return slog.String("level", strings.ToLower(a.Value.String()))
	}
	return a
}

// Nop returns a logger that discards everything.
func Nop() *slog.Logger { return NewLogger(io.Discard, LevelOff) }

var (
	defaultOnce sync.Once
	defaultLog  *slog.Logger
)

// Default returns the process-wide fallback logger (stderr, info level) —
// the logfmt handler, not slog.Default's log-package format.
func Default() *slog.Logger {
	defaultOnce.Do(func() { defaultLog = NewLogger(os.Stderr, LevelInfo) })
	return defaultLog
}

// RateLimit is a token-bucket gate for hot-path log lines: at most burst
// lines immediately, refilled one token per interval. It replaces the
// once-per-process sync.Once suppression pattern — a recurring condition
// logs once per interval instead of once per lifetime, and each emitted
// line reports how many occurrences the gate swallowed since the last one.
// Allow is a few atomic operations with no locks or allocations; a nil
// *RateLimit always allows.
type RateLimit struct {
	interval   int64 // nanoseconds per refilled token
	burst      int64
	tokens     atomic.Int64 // tokens × rlScale, time-scaled
	last       atomic.Int64 // last refill time, unix nanos
	suppressed atomic.Int64
}

// NewRateLimit builds a limiter allowing burst lines immediately and one
// more per interval after that. burst < 1 is treated as 1.
func NewRateLimit(interval time.Duration, burst int) *RateLimit {
	if interval <= 0 {
		interval = time.Second
	}
	if burst < 1 {
		burst = 1
	}
	rl := &RateLimit{interval: int64(interval), burst: int64(burst)}
	rl.tokens.Store(int64(burst))
	rl.last.Store(time.Now().UnixNano())
	return rl
}

// Allow reports whether a line may be emitted now and, when it may, how
// many prior calls were suppressed since the last allowed one.
func (rl *RateLimit) Allow() (ok bool, suppressed int64) {
	if rl == nil {
		return true, 0
	}
	now := time.Now().UnixNano()
	last := rl.last.Load()
	if refill := (now - last) / rl.interval; refill > 0 {
		if rl.last.CompareAndSwap(last, last+refill*rl.interval) {
			// One winner credits the elapsed tokens, capped at burst.
			for {
				cur := rl.tokens.Load()
				next := cur + refill
				if next > rl.burst {
					next = rl.burst
				}
				if cur == next || rl.tokens.CompareAndSwap(cur, next) {
					break
				}
			}
		}
	}
	for {
		cur := rl.tokens.Load()
		if cur <= 0 {
			rl.suppressed.Add(1)
			return false, 0
		}
		if rl.tokens.CompareAndSwap(cur, cur-1) {
			return true, rl.suppressed.Swap(0)
		}
	}
}

// Suppressed reports calls swallowed since the last allowed line.
func (rl *RateLimit) Suppressed() int64 {
	if rl == nil {
		return 0
	}
	return rl.suppressed.Load()
}

// WarnRate logs msg at warn level on l through a rate limiter: when the
// limiter denies, the line is dropped (and counted); when it allows after
// drops, a `suppressed=<n>` field is appended so operators can see the true
// occurrence rate. A nil limiter degrades to plain Warn.
func WarnRate(l *slog.Logger, rl *RateLimit, msg string, kv ...any) {
	ok, suppressed := rl.Allow()
	if !ok {
		return
	}
	if suppressed > 0 {
		kv = append(kv, "suppressed", suppressed)
	}
	l.Warn(msg, kv...)
}
