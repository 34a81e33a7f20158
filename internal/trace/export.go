package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// loaded by Perfetto and chrome://tracing). Complete events ("ph":"X")
// carry ts/dur in microseconds.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object form of the trace-event format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders traces as Chrome trace-event JSON. Each trace
// becomes one "process" (pid) named after its trace id; spans become
// complete ("X") events laid out on lanes (tid) such that a child nests
// inside its parent and concurrent siblings land on separate lanes, which
// is exactly how Perfetto renders overlapping slices correctly.
func WriteChrome(w io.Writer, traces []*Trace) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, tr := range traces {
		pid := i + 1
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pid,
			Args: map[string]any{"name": "trace " + tr.ID.String()},
		})
		lanes := assignLanes(tr.Spans)
		for si, sp := range tr.Spans {
			args := make(map[string]any, len(sp.Attrs)+3)
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			args["span_id"] = sp.ID.String()
			if sp.Messages > 0 || sp.Bytes > 0 {
				args["transport_messages"] = sp.Messages
				args["transport_bytes"] = sp.Bytes
			}
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: sp.Name,
				Ph:   "X",
				Ts:   micros(sp.Start),
				Dur:  float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
				Pid:  pid,
				Tid:  lanes[si],
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// micros converts an absolute time to trace-event microseconds. Float64
// keeps microsecond precision for epoch timestamps (2^53 µs ≈ 285 years).
func micros(t time.Time) float64 {
	return float64(t.UnixNano()) / 1e3
}

// assignLanes places each span on a lane (tid) so that every span shares
// its parent's lane when possible (Perfetto nests time-contained slices on
// one track) and moves to a fresh lane only when a non-ancestor span on
// that lane overlaps it (concurrent siblings). Quadratic in span count,
// which the per-trace span cap bounds.
func assignLanes(spans []SpanData) []int {
	n := len(spans)
	lanes := make([]int, n)
	parentOf := make(map[SpanID]SpanID, n)
	indexOf := make(map[SpanID]int, n)
	for i, sp := range spans {
		parentOf[sp.ID] = sp.Parent
		indexOf[sp.ID] = i
	}
	isAncestor := func(anc, of SpanID) bool {
		for cur := parentOf[of]; cur != 0; cur = parentOf[cur] {
			if cur == anc {
				return true
			}
			if _, ok := parentOf[cur]; !ok {
				return false
			}
		}
		return false
	}
	overlaps := func(a, b SpanData) bool {
		return a.Start.Before(b.End) && b.Start.Before(a.End)
	}
	// Place spans in start order so parents (which start before their
	// children) are already placed when the children arrive.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start.Before(spans[order[b]].Start) })
	placed := make([]int, 0, n) // indices already assigned, in placement order
	for _, i := range order {
		sp := spans[i]
		lane := 0
		if pi, ok := indexOf[sp.Parent]; ok {
			lane = lanes[pi]
		}
		for {
			conflict := false
			for _, j := range placed {
				if lanes[j] != lane {
					continue
				}
				other := spans[j]
				if overlaps(sp, other) && !isAncestor(other.ID, sp.ID) && !isAncestor(sp.ID, other.ID) {
					conflict = true
					break
				}
			}
			if !conflict {
				break
			}
			lane++
		}
		lanes[i] = lane
		placed = append(placed, i)
	}
	return lanes
}

// WriteTree renders one trace as an indented human-readable tree:
//
//	trace 1f2e3d… 12.3ms (7 spans)
//	└─ http.query 12.3ms route=query status=200 [3 msgs 1.2kB]
//	   └─ index.query 310µs fanout=17
//
// Spans whose parent is missing (dropped straggler) appear at top level.
func WriteTree(w io.Writer, tr *Trace) error {
	if _, err := fmt.Fprintf(w, "trace %s %v (%d spans)\n",
		tr.ID, tr.Duration().Round(time.Microsecond), len(tr.Spans)); err != nil {
		return err
	}
	children := make(map[SpanID][]int)
	known := make(map[SpanID]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		known[sp.ID] = true
	}
	var roots []int
	for i, sp := range tr.Spans {
		if sp.Parent != 0 && known[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return tr.Spans[idx[a]].Start.Before(tr.Spans[idx[b]].Start) })
	}
	byStart(roots)
	var dump func(i int, prefix string, last bool) error
	dump = func(i int, prefix string, last bool) error {
		sp := tr.Spans[i]
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		var sb strings.Builder
		sb.WriteString(prefix)
		sb.WriteString(branch)
		sb.WriteString(sp.Name)
		fmt.Fprintf(&sb, " %v", sp.Duration().Round(time.Microsecond))
		for _, a := range sp.Attrs {
			sb.WriteString(" ")
			sb.WriteString(a.Key)
			sb.WriteString("=")
			sb.WriteString(a.Value)
		}
		if sp.Messages > 0 || sp.Bytes > 0 {
			fmt.Fprintf(&sb, " [%d msgs %dB]", sp.Messages, sp.Bytes)
		}
		sb.WriteString("\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
		kids := children[sp.ID]
		byStart(kids)
		for ki, k := range kids {
			if err := dump(k, childPrefix, ki == len(kids)-1); err != nil {
				return err
			}
		}
		return nil
	}
	for ri, r := range roots {
		if err := dump(r, "", ri == len(roots)-1); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrees renders every retained trace, oldest first.
func (t *Tracer) WriteTrees(w io.Writer) error {
	for _, tr := range t.Recent() {
		if err := WriteTree(w, tr); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP serves the recent-trace ring as Chrome trace-event JSON (load
// it in Perfetto), or as indented text trees with ?format=text: the
// tracer is the GET /v1/traces handler of every host binary.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Write errors mean the client went away mid-download; nothing to do.
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = t.WriteTrees(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = WriteChrome(w, t.Recent())
}
