package telemetry

import (
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one node of a request-scoped span tree: a named wall-clock
// interval with key/value annotations and child stages. The serving
// stack builds one tree per request (admit → queue-wait →
// compile → execute → encode-response) and records finished trees into
// a Spans window for Perfetto export.
//
// A nil *Span is the disabled state: every method no-ops (children of
// a nil span are nil), so instrumented code threads spans
// unconditionally and pays one nil check when tracing is off. A span
// may be read (JSON, flatten) while another goroutine is still
// annotating it; all mutation and traversal lock the span.
type Span struct {
	mu       sync.Mutex
	name     string
	track    string // root only: the Perfetto track ("" = the service track)
	start    time.Time
	end      time.Time
	args     map[string]any
	children []*Span
}

// NewSpan starts a root span now.
func NewSpan(name string) *Span { return NewSpanAt(name, time.Now()) }

// NewSpanAt starts a root span at an explicit instant (tests, and
// stages measured before their span object exists, like queue wait).
func NewSpanAt(name string, start time.Time) *Span {
	return &Span{name: name, start: start}
}

// StartChild starts a child stage now.
func (sp *Span) StartChild(name string) *Span {
	return sp.StartChildAt(name, time.Now())
}

// StartChildAt starts a child stage at an explicit instant. Child
// starts clamp into the parent's start so a finished tree is always
// well-formed (every child interval inside its parent's).
func (sp *Span) StartChildAt(name string, start time.Time) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if start.Before(sp.start) {
		start = sp.start
	}
	c := &Span{name: name, start: start}
	sp.children = append(sp.children, c)
	return c
}

// Annotate attaches one key/value argument to the span.
func (sp *Span) Annotate(key string, v any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.args == nil {
		sp.args = make(map[string]any)
	}
	sp.args[key] = v
}

// SetTrack names the Perfetto track the (root) span renders on —
// the serving stack uses the session id, so a multi-tenant window
// opens with sessions as tracks.
func (sp *Span) SetTrack(track string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.track = track
	sp.mu.Unlock()
}

// End closes the span now.
func (sp *Span) End() { sp.EndAt(time.Now()) }

// EndAt closes the span at an explicit instant. Ends clamp to the
// span's start, still-open children are closed at the parent's end,
// and child ends clamp into the parent's — so an ended span is always
// a well-formed tree regardless of instrumentation races.
func (sp *Span) EndAt(end time.Time) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if end.Before(sp.start) {
		end = sp.start
	}
	sp.end = end
	for _, c := range sp.children {
		c.clampInto(end)
	}
}

// clampInto closes an open child at the parent's end and pulls a
// child end past the parent back inside.
func (sp *Span) clampInto(parentEnd time.Time) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.end.IsZero() || sp.end.After(parentEnd) {
		sp.end = parentEnd
		if sp.end.Before(sp.start) {
			sp.end = sp.start
		}
	}
	for _, c := range sp.children {
		c.clampInto(sp.end)
	}
}

// Duration returns the span's closed length (0 while still open).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.end.IsZero() {
		return 0
	}
	return sp.end.Sub(sp.start)
}

// SpanJSON is the wire form of a span tree, as served by the run-trace
// endpoint. Times are microseconds relative to the recorder epoch.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Args     map[string]any `json:"args,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// JSON converts the tree, timestamping relative to epoch. A still-open
// span reports DurUS 0.
func (sp *Span) JSON(epoch time.Time) *SpanJSON {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	j := &SpanJSON{
		Name:    sp.name,
		StartUS: sp.start.Sub(epoch).Microseconds(),
	}
	if !sp.end.IsZero() {
		j.DurUS = sp.end.Sub(sp.start).Microseconds()
	}
	if len(sp.args) > 0 {
		j.Args = make(map[string]any, len(sp.args))
		for k, v := range sp.args {
			j.Args[k] = v
		}
	}
	for _, c := range sp.children {
		j.Children = append(j.Children, c.JSON(epoch))
	}
	return j
}

// DefaultMaxSpans bounds an unconfigured span window. A served request
// tree retains ~2.3 KB, so the default window holds ~9 MB.
const DefaultMaxSpans = 4096

// Spans is the serving-window span recorder: a ring of the most recent
// finished request trees (older trees are evicted and counted) that
// exports as one Chrome trace-event file where each track — the
// service's, plus one per session — is a Perfetto process and
// overlapping requests pack onto reusable rows. A long-lived server
// therefore holds bounded memory and keeps tracing its newest traffic.
// A nil *Spans discards every Record.
type Spans struct {
	mu      sync.Mutex
	epoch   time.Time
	max     int
	trees   []*Span // once full, a ring whose oldest tree is trees[next]
	next    int
	dropped int64
}

// NewSpans returns a recorder keeping the last max trees (<=0 selects
// DefaultMaxSpans). The epoch — the zero point of every exported
// timestamp — is the construction instant.
func NewSpans(max int) *Spans {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Spans{epoch: time.Now(), max: max}
}

// Epoch returns the recorder's timestamp zero point.
func (s *Spans) Epoch() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.epoch
}

// Record stores one finished request tree, evicting the oldest when
// the window is full.
func (s *Spans) Record(root *Span) {
	if s == nil || root == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.trees) < s.max {
		s.trees = append(s.trees, root)
		return
	}
	s.trees[s.next] = root
	s.next = (s.next + 1) % s.max
	s.dropped++
}

// Len returns the number of retained trees.
func (s *Spans) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.trees)
}

// Dropped returns the number of trees evicted from the window.
func (s *Spans) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Trees returns a copy of the retained roots, oldest first (tests,
// export).
func (s *Spans) Trees() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.treesLocked()
}

// treesLocked copies the retained trees, oldest first; s.mu is held.
func (s *Spans) treesLocked() []*Span {
	out := make([]*Span, 0, len(s.trees))
	out = append(out, s.trees[s.next:]...)
	return append(out, s.trees[:s.next]...)
}

// WriteTrace exports the window — the most recent retained trees — as
// a Chrome trace-event JSON array (the same writer format as
// Trace.WriteJSON), loadable in Perfetto: one process per track,
// process_name metadata naming it, requests greedily packed onto rows
// so concurrent requests of one session render side by side. When
// older trees were evicted, a final instant event carries their count.
func (s *Spans) WriteTrace(w io.Writer) error {
	if s == nil {
		return writeEvents(w, nil)
	}
	s.mu.Lock()
	trees := s.treesLocked()
	epoch, dropped := s.epoch, s.dropped
	s.mu.Unlock()

	byTrack := make(map[string][]*Span)
	for _, t := range trees {
		t.mu.Lock()
		track := t.track
		t.mu.Unlock()
		byTrack[track] = append(byTrack[track], t)
	}
	tracks := make([]string, 0, len(byTrack))
	for track := range byTrack {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks) // "" (the service track) sorts first

	var events []Event
	for pid, track := range tracks {
		name := track
		if name == "" {
			name = "service"
		} else {
			name = "session " + name
		}
		events = append(events, Event{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
		roots := byTrack[track]
		sort.Slice(roots, func(i, j int) bool {
			return roots[i].startLocked().Before(roots[j].startLocked())
		})
		// Greedy row packing: a request takes the first row free at its
		// start, so a session's concurrent runs spread over exactly as
		// many rows as its peak in-flight depth.
		var rowEnds []time.Time
		for _, root := range roots {
			start, end := root.boundsLocked()
			row := -1
			for i, re := range rowEnds {
				if !re.After(start) {
					row = i
					break
				}
			}
			if row == -1 {
				row = len(rowEnds)
				rowEnds = append(rowEnds, time.Time{})
			}
			rowEnds[row] = end
			root.flatten(epoch, pid, row+1, &events)
		}
	}
	if dropped > 0 {
		events = append(events, Event{
			Name: "span trees evicted from the window", Ph: "i", PID: 0, TID: 1,
			Args: map[string]any{"dropped": dropped},
		})
	}
	return writeEvents(w, events)
}

func (sp *Span) startLocked() time.Time {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.start
}

func (sp *Span) boundsLocked() (time.Time, time.Time) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	end := sp.end
	if end.IsZero() {
		end = sp.start
	}
	return sp.start, end
}

// flatten appends the span and its children as complete ("X") events.
func (sp *Span) flatten(epoch time.Time, pid, tid int, out *[]Event) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ts := sp.start.Sub(epoch).Microseconds()
	if ts < 0 {
		ts = 0
	}
	var dur int64
	if !sp.end.IsZero() {
		dur = sp.end.Sub(sp.start).Microseconds()
	}
	if dur < 1 {
		dur = 1 // Perfetto collapses zero-width slices; keep them visible
	}
	var args map[string]any
	if len(sp.args) > 0 {
		args = make(map[string]any, len(sp.args))
		for k, v := range sp.args {
			args[k] = v
		}
	}
	*out = append(*out, Event{
		Name: sp.name, Cat: "span", Ph: "X",
		TS: ts, Dur: dur, PID: pid, TID: tid, Args: args,
	})
	for _, c := range sp.children {
		c.flatten(epoch, pid, tid, out)
	}
}
