package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of a public call. Start and End are nanoseconds since the
// run's epoch; Parent is the id of the span that caused it (0 for a root:
// one request or one fleet cycle).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	ID     int64  `json:"id"`
}

// spanLog is one goroutine's in-memory span buffer; nothing is written until
// the run ends. A nil *spanLog means tracing is off and every method is a
// no-op, so measured code carries one nil check and no branches of its own.
type spanLog struct {
	epoch  time.Time
	spans  []span
	next   int64
	stride int64
}

// newSpanLogs returns n logs whose ids interleave (log i hands out
// i+1, i+1+n, ...), so ids stay unique without a shared counter.
func newSpanLogs(n int, epoch time.Time) []*spanLog {
	logs := make([]*spanLog, n)
	for i := range logs {
		logs[i] = &spanLog{epoch: epoch, next: int64(i + 1), stride: int64(n)}
	}
	return logs
}

// newID reserves an id for a parent span whose children are recorded first.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	id := l.next
	l.next += l.stride
	return id
}

// put records a span under a reserved id.
func (l *spanLog) put(id int64, name string, parent int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
		Parent: parent, ID: id,
	})
}

// add records a leaf span.
func (l *spanLog) add(name string, parent int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.put(l.newID(), name, parent, start, end)
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	// byName holds every span's duration under its name.
	byName map[string]*samples
	// unaccountedPct is the share of root-span time (requests or cycles)
	// that no child span covers: the summed self time of every span that
	// has children, over the summed duration of the roots.
	unaccountedPct float64
}

func summarize(logs []*spanLog) traceSummary {
	sum := traceSummary{byName: map[string]*samples{}}
	childTime := map[int64]int64{}
	for _, l := range logs {
		for _, sp := range l.spans {
			if sp.Parent != 0 {
				childTime[sp.Parent] += sp.End - sp.Start
			}
		}
	}
	var rootTime, selfTime int64
	for _, l := range logs {
		for _, sp := range l.spans {
			d := sp.End - sp.Start
			s := sum.byName[sp.Name]
			if s == nil {
				s = &samples{}
				sum.byName[sp.Name] = s
			}
			s.add(time.Duration(d))
			if sp.Parent == 0 {
				rootTime += d
			}
			if c, ok := childTime[sp.ID]; ok && d > c {
				selfTime += d - c
			}
		}
	}
	if rootTime > 0 {
		sum.unaccountedPct = 100 * float64(selfTime) / float64(rootTime)
	}
	return sum
}

// traceFileRoots bounds the trace file: spans of the first this-many roots
// are written in full. The summary above always covers every span; the file
// is for reading individual requests and cycles, and a window workload
// records some 50 spans per cycle.
const traceFileRoots = 500

// writeTrace writes bench/out/trace-<workload>.json under dir.
func writeTrace(dir, workload string, prov provenance, params runParams, logs []*spanLog) (string, error) {
	type traceFile struct {
		Provenance provenance `json:"provenance"`
		Params     runParams  `json:"params"`
		Spans      []span     `json:"spans"`
	}
	tf := traceFile{Provenance: prov, Params: params}
	for _, l := range logs {
		keep := map[int64]bool{}
		roots := 0
		// Children are recorded before their parent, so find the kept roots
		// first and then take every span that hangs off one of them.
		for _, sp := range l.spans {
			if sp.Parent == 0 && roots < traceFileRoots/len(logs) {
				keep[sp.ID] = true
				roots++
			}
		}
		for changed := true; changed; {
			changed = false
			for _, sp := range l.spans {
				if !keep[sp.ID] && keep[sp.Parent] {
					keep[sp.ID] = true
					changed = true
				}
			}
		}
		for _, sp := range l.spans {
			if keep[sp.ID] {
				tf.Spans = append(tf.Spans, sp)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
