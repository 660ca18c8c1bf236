package cluster

import (
	"testing"
	"time"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second)
	if got := b.gate(now); got != gateClosed {
		t.Fatalf("fresh breaker gate = %v, want closed", got)
	}
	for i := 0; i < 2; i++ {
		if b.failure(now) {
			t.Fatalf("breaker opened after %d failure(s), threshold 3", i+1)
		}
	}
	if !b.failure(now) {
		t.Fatal("third consecutive failure did not open the breaker")
	}
	if got := b.gate(now); got != gateBlocked {
		t.Fatalf("open breaker gate = %v, want blocked", got)
	}
	state, _, _ := b.view()
	if state != "open" {
		t.Fatalf("view state = %q, want open", state)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second)
	b.failure(now)
	b.failure(now)
	b.success(now, 10*time.Millisecond)
	// The streak restarted: two more failures must not open it.
	b.failure(now)
	if b.failure(now) {
		t.Fatal("failure streak survived an interleaved success")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, 5*time.Second)
	b.failure(now)
	if got := b.gate(now.Add(time.Second)); got != gateBlocked {
		t.Fatalf("gate during cooldown = %v, want blocked", got)
	}
	after := now.Add(5 * time.Second)
	if got := b.gate(after); got != gateProbe {
		t.Fatalf("gate after cooldown = %v, want probe", got)
	}
	// gate never mutates: asking twice still offers the probe.
	if got := b.gate(after); got != gateProbe {
		t.Fatal("second gate call lost the probe slot without beginProbe")
	}
	b.beginProbe()
	if got := b.gate(after); got != gateBlocked {
		t.Fatalf("gate with probe in flight = %v, want blocked", got)
	}
	// A failed probe reopens and restarts the cooldown.
	if !b.failure(after) {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if got := b.gate(after.Add(time.Second)); got != gateBlocked {
		t.Fatal("cooldown did not restart after a failed probe")
	}
	// A successful probe closes.
	reopenProbe := after.Add(5 * time.Second)
	if got := b.gate(reopenProbe); got != gateProbe {
		t.Fatal("no probe offered after the second cooldown")
	}
	b.beginProbe()
	b.success(reopenProbe, 10*time.Millisecond)
	if got := b.gate(reopenProbe); got != gateClosed {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestBreakerSlowStrikes: successes that are both absolutely slow and far
// beyond the worker's own EWMA count toward opening — a worker on a
// trickling link fails its way open even though every call completes.
func TestBreakerSlowStrikes(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(2, 5*time.Second)
	for i := 0; i < 8; i++ {
		b.success(now, 20*time.Millisecond) // settle the EWMA around 20ms
	}
	b.success(now, 2*time.Second) // > 6x EWMA and > 500ms: strike one
	if got := b.gate(now); got != gateClosed {
		t.Fatal("one slow strike should not open the breaker at threshold 2")
	}
	b.success(now, 2*time.Second) // strike two
	if got := b.gate(now); got != gateBlocked {
		t.Fatal("two consecutive slow strikes did not open the breaker")
	}
}

// TestBreakerSlowFloor: a relative jump that stays absolutely fast is not a
// strike — a cold 2ms->40ms wobble must not accumulate toward opening.
func TestBreakerSlowFloor(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, 5*time.Second)
	b.success(now, 2*time.Millisecond)
	b.success(now, 40*time.Millisecond) // 20x the EWMA but << slowFloor
	if got := b.gate(now); got != gateClosed {
		t.Fatal("fast-in-absolute-terms success counted as a slow strike")
	}
}

func TestBreakerViewEWMA(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second)
	b.success(now, 100*time.Millisecond)
	_, _, ewma := b.view()
	if ewma != 100 {
		t.Fatalf("first sample EWMA = %v ms, want 100", ewma)
	}
	b.success(now, 200*time.Millisecond)
	_, _, ewma = b.view()
	if want := 0.8*100 + 0.2*200; ewma != want {
		t.Fatalf("EWMA after second sample = %v, want %v", ewma, want)
	}
	b.failure(now)
	_, fails, _ := b.view()
	if fails != 1 {
		t.Fatalf("view fails = %d, want 1", fails)
	}
}

// TestBreakerSlowFromFirstCall: a worker slow from its first call has no
// healthy EWMA of its own to be judged against, so beside a 50 ms peer its
// first threshold 700 ms calls are strikes, none seeds the EWMA, and the
// breaker opens.
func TestBreakerSlowFromFirstCall(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 5*time.Second)
	for i := 0; i < 2; i++ {
		if b.successBeside(now, 700*time.Millisecond, 50) {
			t.Fatalf("breaker opened after %d slow call(s), threshold 3", i+1)
		}
	}
	if !b.successBeside(now, 700*time.Millisecond, 50) {
		t.Fatal("third 700 ms call beside a 50 ms peer did not open the breaker")
	}
	if got := b.gate(now); got != gateBlocked {
		t.Fatalf("gate = %v, want blocked", got)
	}
	if _, _, ewma := b.view(); ewma != 0 {
		t.Fatalf("EWMA = %v ms after strikes only, want 0", ewma)
	}
}

// TestBreakerPeerWithinFactor: a worker 3x slower than its fastest peer,
// past slowFloor but within slowFactor, is not struck.
func TestBreakerPeerWithinFactor(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, 5*time.Second)
	for i := 0; i < 4; i++ {
		if b.successBeside(now, 600*time.Millisecond, 200) {
			t.Fatal("a worker 3x slower than its peer was struck open")
		}
	}
	if got := b.gate(now); got != gateClosed {
		t.Fatalf("gate = %v, want closed", got)
	}
}

// TestBreakerNoPeerMatchesOwnEWMA: with no peer, a call is judged against
// the worker's own EWMA alone, so a worker slow from its first call seeds
// its EWMA and is never struck, as without peers.
func TestBreakerNoPeerMatchesOwnEWMA(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, 5*time.Second)
	for i := 0; i < 4; i++ {
		if b.successBeside(now, 700*time.Millisecond, 0) {
			t.Fatal("a lone slow worker was struck open")
		}
	}
	if _, _, ewma := b.view(); ewma != 700 {
		t.Fatalf("EWMA = %v ms, want 700", ewma)
	}
	// A later trickle past 6x its own EWMA is still a strike.
	if !b.successBeside(now, 5*time.Second, 0) {
		t.Fatal("a call past 6x the worker's own EWMA was not a strike")
	}
}
