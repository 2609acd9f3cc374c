package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// the encrypted layer; spans inside the program are a later change (ROADMAP
// item 2). Each rank owns one tracer, so recording takes no lock.

type spanName uint8

const (
	spanOp spanName = iota
	spanSend
	spanRecv
	spanBcast
	spanAllgather
	spanAlltoall
)

var spanNames = [...]string{"op", "send", "recv", "bcast", "allgather", "alltoall"}

// span is one timed interval. Spans of one op share Op; Parent is the ID of
// the op span that caused it (-1 for the op span itself). Start and End are
// nanoseconds: wall time since the tracer's base on the real transports,
// virtual time on the simulator.
type span struct {
	ID, Parent int32
	Op         int32
	Name       spanName
	Start, End int64
}

// pairTracerCap bounds the spans one rank of a wall-clock workload keeps: the
// ring overwrites, so every op pays the recording cost and the last spans are
// the ones written out.
const pairTracerCap = 1 << 15

// tracer is one rank's in-memory span ring. A nil *tracer records nothing:
// the untraced pass pays one nil check per call.
type tracer struct {
	rank int
	base time.Time
	ring []span
	n    int // spans ever recorded
}

func newTracer(rank, capacity int, base time.Time) *tracer {
	return &tracer{rank: rank, base: base, ring: make([]span, capacity)}
}

// now is the wall-clock timestamp of a span boundary; 0 when tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// record stores one span and returns its ID.
func (t *tracer) record(op int, name spanName, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(t.n)
	t.ring[t.n%len(t.ring)] = span{ID: id, Parent: parent, Op: int32(op), Name: name, Start: start, End: end}
	t.n++
	return id
}

// kept returns the retained spans, oldest first.
func (t *tracer) kept() []span {
	if t.n <= len(t.ring) {
		return t.ring[:t.n]
	}
	i := t.n % len(t.ring)
	return append(slices.Clone(t.ring[i:]), t.ring[:i]...)
}

// durationsUs returns the durations of the retained spans of one name.
func (t *tracer) durationsUs(name spanName) []float64 {
	var d []float64
	for _, s := range t.kept() {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return d
}

// traceEvent is one Chrome trace-event "complete" record (ph "X"); Perfetto
// and chrome://tracing open a {"traceEvents": [...]} file of them. ts and dur
// are microseconds. The args reuse simtrace's column names where they
// overlap (src, dst, size).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every rank's retained spans of one workload to
// dir/<workload>.trace.json.
func writeChromeTrace(dir string, w workload, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.Name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tracers {
		for _, s := range t.kept() {
			if !first {
				fmt.Fprint(bw, ",")
			}
			first = false
			args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
			if w.Transport != "sim" {
				src, dst := t.rank, 1-t.rank
				if s.Name == spanRecv {
					src, dst = dst, src
				}
				args["src"], args["dst"], args["size"] = src, dst, w.Size
			}
			ev := traceEvent{
				Name: spanNames[s.Name], Cat: w.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: 0, Tid: t.rank, Args: args,
			}
			if err := enc.Encode(ev); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
