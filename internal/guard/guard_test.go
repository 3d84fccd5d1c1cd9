package guard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestLimitErrorMessagesNameTheFlag(t *testing.T) {
	cases := []struct {
		err  *LimitError
		want []string
	}{
		{&LimitError{Kind: KindStates, Budget: 50000, Visited: 50001},
			[]string{"state budget exhausted at 50001 states", "-maxstates 100000"}},
		{&LimitError{Kind: KindTime, Elapsed: 1500 * time.Millisecond},
			[]string{"wall-clock limit", "-timeout"}},
		{&LimitError{Kind: KindMemory, MaxMemBytes: 1 << 30, HeapBytes: 3 << 29},
			[]string{"memory limit", "-maxmem", "1.5GiB", "1.0GiB"}},
		{&LimitError{Kind: KindCancelled, Elapsed: time.Second}, []string{"cancelled"}},
		{&LimitError{Kind: KindPanic, Value: "boom"}, []string{"panic", "boom"}},
	}
	for _, c := range cases {
		msg := c.err.Error()
		for _, want := range c.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%v message %q missing %q", c.err.Kind, msg, want)
			}
		}
	}
}

func TestLimitErrorIs(t *testing.T) {
	cases := []struct {
		kind     Kind
		sentinel error
		also     error
	}{
		{KindStates, ErrStates, nil},
		{KindTime, ErrTimeout, context.DeadlineExceeded},
		{KindMemory, ErrMemory, nil},
		{KindCancelled, ErrCancelled, context.Canceled},
		{KindPanic, ErrPanic, nil},
	}
	for _, c := range cases {
		err := error(&LimitError{Kind: c.kind})
		if !errors.Is(err, ErrLimit) {
			t.Errorf("%v does not match ErrLimit", c.kind)
		}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("%v does not match its sentinel", c.kind)
		}
		if c.also != nil && !errors.Is(err, c.also) {
			t.Errorf("%v does not match %v", c.kind, c.also)
		}
		if c.kind != KindStates && errors.Is(err, ErrStates) {
			t.Errorf("%v wrongly matches ErrStates", c.kind)
		}
	}
}

func TestGuardStatesBudget(t *testing.T) {
	g := New(nil, 10, 0)
	if err := g.Check(10); err != nil {
		t.Fatalf("Check(10) under budget 10: %v", err)
	}
	err := g.Check(11)
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != KindStates || le.Budget != 10 || le.Visited != 11 {
		t.Fatalf("Check(11) = %v, want states limit {10, 11}", err)
	}
}

func TestGuardCancellationAndDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, 0, 0)
	if err := g.Check(1); err != nil {
		t.Fatalf("pre-cancel Check: %v", err)
	}
	cancel()
	if err := g.Check(2); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Check = %v, want cancelled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := New(dctx, 0, 0).Check(1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired-deadline Check = %v, want timeout", err)
	}

	// Cancellation wins over a simultaneously blown budget.
	g2 := New(ctx, 1, 0)
	var le *LimitError
	if err := g2.Check(5); !errors.As(err, &le) || le.Kind != KindCancelled {
		t.Fatalf("cancelled+blown Check = %v, want cancelled first", err)
	}
}

// A guard derived with WithStates — each stage of the staged
// materialized pipeline runs under one — keeps its parent's
// cancellation: it is active without a budget of its own and trips
// with the kind its context's end calls for.
func TestGuardWithStatesKeepsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, 0, 0).WithStates(0)
	if !g.Active() {
		t.Fatal("WithStates guard over a cancellable context reports inactive")
	}
	if err := g.Check(1); err != nil {
		t.Fatalf("pre-cancel Check: %v", err)
	}
	cancel()
	var le *LimitError
	if err := g.Check(2); !errors.As(err, &le) || le.Kind != KindCancelled {
		t.Fatalf("post-cancel Check on WithStates guard = %v, want cancelled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := New(dctx, 0, 0).WithStates(100).Check(1); !errors.As(err, &le) || le.Kind != KindTime {
		t.Fatalf("expired-deadline Check on WithStates guard = %v, want wall-clock", err)
	}
}

func TestGuardMemoryWatchdog(t *testing.T) {
	// A 1-byte cap trips on the first sample; an absurdly large cap
	// never does.
	if err := New(nil, 0, 1).Check(1); !errors.Is(err, ErrMemory) {
		t.Fatalf("1-byte cap did not trip: Check = %v", err)
	}
	if err := New(nil, 0, 1<<62).Check(1); err != nil {
		t.Fatalf("huge cap tripped: %v", err)
	}
}

func TestNextMemCheckSchedule(t *testing.T) {
	// The first sample (no rate observed yet) starts at the floor.
	if got := nextMemCheck(memCheckMax, time.Millisecond, 0, 0, 1<<30, true); got != memCheckMin {
		t.Errorf("first interval = %v, want %v", got, memCheckMin)
	}
	// Fast growth near the cap pins the interval to the floor.
	if got := nextMemCheck(memCheckMax, time.Millisecond, 900<<20, 1000<<20, 1024<<20, false); got != memCheckMin {
		t.Errorf("fast growth near cap = %v, want %v", got, memCheckMin)
	}
	// Slow growth far from the cap keeps the ceiling once there...
	if got := nextMemCheck(memCheckMax, 50*time.Millisecond, 10<<20, 10<<20+1024, 4096<<20, false); got != memCheckMax {
		t.Errorf("slow growth far from cap = %v, want %v", got, memCheckMax)
	}
	// ...but never climbs toward it: a stall that stretched a 500µs
	// interval to 50ms with little growth must not lengthen the next one.
	if got := nextMemCheck(memCheckMin, 50*time.Millisecond, 10<<20, 10<<20+1024, 4096<<20, false); got != memCheckMin {
		t.Errorf("stalled slow growth = %v, want %v", got, memCheckMin)
	}
	// A flat or shrinking heap backs off geometrically.
	if got := nextMemCheck(memCheckMin, time.Millisecond, 100<<20, 90<<20, 1<<30, false); got != 2*memCheckMin {
		t.Errorf("shrinking heap = %v, want %v", got, 2*memCheckMin)
	}
	// Steady growth schedules for a quarter of the headroom:
	// 100MiB grown in 10ms with 400MiB headroom left → 10ms.
	if got, want := nextMemCheck(10*time.Millisecond, 10*time.Millisecond, 0, 100<<20, 500<<20, false), 10*time.Millisecond; got != want {
		t.Errorf("steady growth = %v, want %v", got, want)
	}
}

func TestGuardMemoryWatchdogBoundedOvershoot(t *testing.T) {
	// Regression: the watchdog used to sample at a fixed 50ms cadence,
	// so a tight allocation loop could retain hundreds of MiB past
	// -maxmem between two samples. The adaptive interval must keep the
	// trip within a modest margin of the cap; the slack is generous to
	// absorb CI scheduling jitter.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const headroom = 64 << 20
	capBytes := ms.HeapAlloc + headroom
	g := New(nil, 0, capBytes)

	var le *LimitError
	retained := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		chunk := make([]byte, 1<<20)
		chunk[0] = byte(i) // touch so the page is really committed
		retained = append(retained, chunk)
		if err := g.Check(i); err != nil {
			if !errors.As(err, &le) || le.Kind != KindMemory {
				t.Fatalf("Check = %v, want a memory limit", err)
			}
			break
		}
	}
	runtime.KeepAlive(retained)
	if le == nil {
		t.Fatal("retained 1GiB past the cap without tripping")
	}
	const slack = 48 << 20
	if le.HeapBytes > capBytes+slack {
		t.Fatalf("watchdog overshoot: tripped at heap %s, cap %s + %s slack",
			FormatBytes(le.HeapBytes), FormatBytes(capBytes), FormatBytes(slack))
	}
}

func TestGuardNilAndActive(t *testing.T) {
	var g *Guard
	if g.Active() || g.Check(1<<30) != nil || g.MaxStates() != 0 {
		t.Error("nil guard must be inert")
	}
	if New(nil, 0, 0).Active() {
		t.Error("limitless guard reports Active")
	}
	if !New(nil, 1, 0).Active() || !New(nil, 0, 1).Active() {
		t.Error("limited guard reports inactive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !New(ctx, 0, 0).Active() {
		t.Error("cancellable guard reports inactive")
	}
}

func TestCapture(t *testing.T) {
	if err := Capture(func() error { return nil }); err != nil {
		t.Fatalf("clean Capture: %v", err)
	}
	sentinel := errors.New("plain")
	if err := Capture(func() error { return sentinel }); err != sentinel {
		t.Fatalf("Capture did not pass the error through: %v", err)
	}
	err := Capture(func() error { panic("kaboom") })
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != KindPanic || le.Value != "kaboom" || len(le.Stack) == 0 {
		t.Fatalf("Capture(panic) = %v, want panic limit with stack", err)
	}
	// An already-isolated LimitError re-panicked through an unbudgeted
	// wrapper passes through unwrapped.
	inner := &LimitError{Kind: KindPanic, Value: "orig"}
	if err := Capture(func() error { panic(inner) }); err != error(inner) {
		t.Fatalf("Capture(re-panic) = %v, want the original", err)
	}
}

func TestParseAndFormatBytes(t *testing.T) {
	good := map[string]uint64{
		"1024": 1024, "64k": 64 << 10, "64K": 64 << 10, "512MiB": 512 << 20,
		"2g": 2 << 30, "2GB": 2 << 30, "1T": 1 << 40, "7b": 7,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "0", "-1", "x", "12q", "k", "1.5G"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
	if got := FormatBytes(1536 << 20); got != "1.5GiB" {
		t.Errorf("FormatBytes = %q", got)
	}
}
