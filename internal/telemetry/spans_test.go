package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// wellFormed asserts every child interval sits inside its parent's and
// every span is closed, recursively.
func wellFormed(t *testing.T, j *SpanJSON) {
	t.Helper()
	start, end := j.StartUS, j.StartUS+j.DurUS
	for _, c := range j.Children {
		if c.StartUS < start || c.StartUS+c.DurUS > end {
			t.Errorf("child %q [%d,%d] escapes parent %q [%d,%d]",
				c.Name, c.StartUS, c.StartUS+c.DurUS, j.Name, start, end)
		}
		wellFormed(t, c)
	}
}

func TestSpanTreeWellFormed(t *testing.T) {
	epoch := time.Unix(0, 0)
	root := NewSpanAt("request", epoch.Add(time.Millisecond))
	// A child claiming to start before its parent clamps to the parent
	// start; a child left open closes at the parent's end; a child
	// claiming to end after the parent pulls back inside.
	early := root.StartChildAt("early", epoch)
	early.EndAt(epoch.Add(2 * time.Millisecond))
	open := root.StartChildAt("open", epoch.Add(2*time.Millisecond))
	grandchild := open.StartChildAt("grandchild", epoch.Add(3*time.Millisecond))
	late := root.StartChildAt("late", epoch.Add(4*time.Millisecond))
	late.EndAt(epoch.Add(time.Hour))
	_ = grandchild
	root.EndAt(epoch.Add(5 * time.Millisecond))

	j := root.JSON(epoch)
	if j.StartUS != 1000 || j.DurUS != 4000 {
		t.Fatalf("root = [%d,+%d], want [1000,+4000]", j.StartUS, j.DurUS)
	}
	if len(j.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(j.Children))
	}
	wellFormed(t, j)
	if j.Children[1].Children[0].Name != "grandchild" {
		t.Errorf("grandchild missing from open child: %+v", j.Children[1])
	}
}

func TestSpanEndClampsToStart(t *testing.T) {
	epoch := time.Unix(0, 0)
	sp := NewSpanAt("s", epoch.Add(time.Second))
	sp.EndAt(epoch) // backwards end clamps to a zero-width span
	if d := sp.Duration(); d != 0 {
		t.Errorf("Duration = %v, want 0", d)
	}
}

func TestNilSpanNoOps(t *testing.T) {
	var sp *Span
	c := sp.StartChild("child")
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	c.Annotate("k", 1)
	c.SetTrack("x")
	c.End()
	if c.JSON(time.Time{}) != nil {
		t.Error("nil span JSON must be nil")
	}
	var s *Spans
	s.Record(NewSpan("r"))
	if s.Len() != 0 || s.Dropped() != 0 {
		t.Error("nil Spans must discard records")
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(buf.String()), "[") {
		t.Errorf("nil Spans trace = %q, want a JSON array", buf.String())
	}
}

func TestSpansCapAndDropCount(t *testing.T) {
	s := NewSpans(2)
	for i := 0; i < 5; i++ {
		sp := NewSpan(fmt.Sprintf("r%d", i))
		sp.End()
		s.Record(sp)
	}
	if s.Len() != 2 || s.Dropped() != 3 {
		t.Errorf("Len=%d Dropped=%d, want 2 and 3", s.Len(), s.Dropped())
	}
	// The window keeps the most recent trees, oldest first.
	var names []string
	for _, tr := range s.Trees() {
		names = append(names, tr.JSON(s.Epoch()).Name)
	}
	if strings.Join(names, ",") != "r3,r4" {
		t.Errorf("kept trees %v, want [r3 r4]", names)
	}
}

func TestSpansWriteTraceTracksAndRows(t *testing.T) {
	s := NewSpans(0)
	epoch := s.Epoch()

	mk := func(track string, startMS, endMS int64) {
		sp := NewSpanAt("request", epoch.Add(time.Duration(startMS)*time.Millisecond))
		sp.SetTrack(track)
		sp.Annotate("request_id", "req-1")
		sp.EndAt(epoch.Add(time.Duration(endMS) * time.Millisecond))
		s.Record(sp)
	}
	mk("", 0, 1)       // service track
	mk("sess-a", 0, 5) // overlapping pair: needs two rows
	mk("sess-a", 2, 6)
	mk("sess-a", 7, 8) // fits back on row 1
	mk("sess-b", 0, 1)

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not a JSON array: %v\n%s", err, buf.String())
	}

	procs := map[int]string{}
	rows := map[int]map[int]int{} // pid → tid → slice count
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procs[e.PID], _ = e.Args["name"].(string)
			}
		case "X":
			if rows[e.PID] == nil {
				rows[e.PID] = map[int]int{}
			}
			rows[e.PID][e.TID]++
		}
	}
	if procs[0] != "service" || procs[1] != "session sess-a" || procs[2] != "session sess-b" {
		t.Errorf("process names = %v, want service/sess-a/sess-b in track order", procs)
	}
	// sess-a's overlapping requests must occupy two rows, with the
	// third request reusing the first row: 2 slices on row 1, 1 on row 2.
	if got := rows[1]; got[1] != 2 || got[2] != 1 {
		t.Errorf("sess-a row packing = %v, want {1:2, 2:1}", got)
	}
}

func TestSpanConcurrentAnnotateAndExport(t *testing.T) {
	s := NewSpans(0)
	root := NewSpan("request")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild("stage")
			c.Annotate("i", i)
			c.End()
		}(i)
	}
	// Export concurrently with mutation: must not race (run under
	// -race) and must always see a well-formed prefix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		s.Record(root)
		s.WriteTrace(&buf)
		root.JSON(s.Epoch())
	}()
	wg.Wait()
	root.End()
	wellFormed(t, root.JSON(s.Epoch()))
}
