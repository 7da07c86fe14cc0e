package spot

import (
	"testing"

	"repro/internal/simtime"
)

// legacyEventTrace is a frozen copy of the pre-Pool EventTrace body:
// the reference the driven pool is pinned against. Any drift in the
// per-tick rng discipline (draw order, attempt cap, hazard scaling)
// breaks the single-job parity goldens, so it fails here first with a
// pointed message.
func legacyEventTrace(mk *Market, target int, horizon, probe simtime.Duration) []Event {
	var out []Event
	nextVM := 0
	live := make(map[int]bool)
	var order []int
	runProbeLoop(horizon, probe, func(t simtime.Time) {
		haz := mk.PreemptionHazard(t) * probe.Seconds() / 3600
		for i := 0; i < len(order); i++ {
			id := order[i]
			if !live[id] {
				continue
			}
			if mk.rng.Float64() < haz {
				mk.Release()
				live[id] = false
				out = append(out, Event{At: t, Kind: Preempt, VM: id, GPUs: mk.GPUsPerVM})
			}
		}
		for i := 0; i < 8 && mk.held < target; i++ {
			if !mk.TryAllocate(t) {
				break
			}
			id := nextVM
			nextVM++
			live[id] = true
			order = append(order, id)
			out = append(out, Event{At: t, Kind: Alloc, VM: id, GPUs: mk.GPUsPerVM})
		}
	})
	return out
}

func TestPoolMatchesLegacyEventTrace(t *testing.T) {
	for _, tc := range []struct {
		gpusPerVM, base, target int
		seed                    int64
	}{
		{1, 120, 150, 55},
		{4, 200, 300, 42},
		{1, 400, 1200, 77},
	} {
		want := legacyEventTrace(NewMarket(tc.gpusPerVM, tc.base, tc.seed),
			tc.target, 24*simtime.Hour, 10*simtime.Minute)
		got := EventTrace(NewMarket(tc.gpusPerVM, tc.base, tc.seed),
			tc.target, 24*simtime.Hour, 10*simtime.Minute)
		if len(got) != len(want) {
			t.Fatalf("seed %d: pool trace has %d events, legacy %d", tc.seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d diverged: pool %v, legacy %v", tc.seed, i, got[i], want[i])
			}
		}
	}
}

func TestPoolKillFeedsBackIntoMarket(t *testing.T) {
	mk := NewMarket(1, 120, 9)
	p := NewPool(mk, 150)
	var live map[int]bool
	// Tick until some VMs exist.
	tick := simtime.Time(0)
	for p.mk.held == 0 {
		tick = tick.Add(10 * simtime.Minute)
		p.Tick(tick, 10*simtime.Minute)
	}
	ids := p.LiveIDs()
	if len(ids) == 0 {
		t.Fatal("held > 0 but no live ids")
	}
	held := p.mk.held
	if !p.Kill(ids[0]) {
		t.Fatal("killing a live VM must succeed")
	}
	if p.mk.held != held-mk.GPUsPerVM {
		t.Fatalf("kill must return capacity: held %d, want %d", p.mk.held, held-mk.GPUsPerVM)
	}
	if p.Kill(ids[0]) {
		t.Fatal("killing a dead VM must be a no-op")
	}
	// The killed VM never reappears in LiveIDs and is never re-preempted
	// by subsequent ticks.
	for i := 0; i < 200; i++ {
		tick = tick.Add(10 * simtime.Minute)
		for _, ev := range p.Tick(tick, 10*simtime.Minute) {
			if ev.Kind == Preempt && ev.VM == ids[0] {
				t.Fatal("killed VM preempted again by the market")
			}
		}
	}
	live = make(map[int]bool)
	for _, id := range p.LiveIDs() {
		live[id] = true
	}
	if live[ids[0]] {
		t.Fatal("killed VM still listed live")
	}
}

func TestPoolTargetDrivesGrowth(t *testing.T) {
	mk := NewMarket(1, 200, 3)
	p := NewPool(mk, 5)
	tick := simtime.Time(0)
	peak := 0
	for i := 0; i < 100; i++ {
		tick = tick.Add(10 * simtime.Minute)
		p.Tick(tick, 10*simtime.Minute)
		if p.mk.held > 5 {
			t.Fatalf("pool grew past its target: held %d > 5", p.mk.held)
		}
		peak = max(peak, p.mk.held)
	}
	if peak != 5 {
		t.Fatalf("pool never reached its target: peak held %d", peak)
	}
}
