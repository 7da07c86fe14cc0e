package sim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// resultPinsFile holds one 64-bit digest per seeded random config: of
// its Run result (trace included), its Run error and its
// EstimateMakespan. The digests were recorded from the executor as it
// was before it stopped scheduling no-op events, so every later change
// to the executor or its event queue must reproduce them bit for bit.
// The estimate half of 414 of them was re-recorded when the estimate
// became one traceless Run: those jittered, brute-force and
// strict-opportunistic configs had been extrapolated from two shorter
// runs. Their Run half is unchanged.
const resultPinsFile = "executor_result_pins.txt"

// resultPinCount is the number of pinned configs.
const resultPinCount = 2000

// pinCase is one seeded random executor config. build returns a fresh
// copy (with a fresh jitter source) each time, because Run and
// EstimateMakespan both draw from Rand.
type pinCase struct {
	label string
	build func() Config
}

// pinCost draws one stage's costs. Most configs draw from a coarse
// grid so that equal-instant events — where firing order is decided by
// the insertion sequence alone — are common.
func pinCost(rng *rand.Rand, style int) StageCosts {
	d := func(hi int) simtime.Duration {
		switch style {
		case 0: // coarse grid: ties everywhere
			return simtime.Duration(rng.Intn(hi/10+1)) * 10 * simtime.Millisecond
		default: // microsecond resolution
			return simtime.Duration(rng.Intn(hi * 1000))
		}
	}
	return StageCosts{
		Fwd: d(50) + simtime.Millisecond, Bwd: d(90) + simtime.Millisecond, Rec: d(50) + simtime.Millisecond,
		ActSend: d(20), GradSend: d(20), AllReduce: d(300), Optimizer: d(30),
	}
}

// resultPinCase draws config i. Every draw comes from a stream seeded
// by i alone, so a failure names a config that can be rebuilt in
// isolation.
func resultPinCase(i int) pinCase {
	rng := rand.New(rand.NewSource(int64(i) + 1))
	p := 1 + rng.Intn(24)
	if rng.Intn(2) == 0 {
		p = 1 + rng.Intn(8)
	}
	nm := 1 + rng.Intn(200)
	if rng.Intn(3) == 0 {
		nm = 1 + rng.Intn(40)
	}
	costs := make([]StageCosts, p)
	switch style := rng.Intn(3); style {
	case 2: // uniform stages, like UnitCosts
		c := pinCost(rng, 0)
		for s := range costs {
			costs[s] = c
		}
	default:
		for s := range costs {
			costs[s] = pinCost(rng, style)
		}
	}

	var (
		pol    schedule.Policy
		orders []schedule.Order
		err    error
	)
	switch rng.Intn(7) {
	case 0:
		pol = schedule.Varuna
	case 1:
		pol = schedule.VarunaStrict
	case 2:
		pol = schedule.Policy{Name: "Varuna-noflush", Rule: true, Opportunistic: true, NoFlush: true}
	case 3:
		pol = schedule.Policy{Name: "Varuna-sync", Rule: true, Opportunistic: rng.Intn(2) == 0,
			SyncComm: true, OverlapFrac: []float64{0, 0.5, 1}[rng.Intn(3)]}
	case 4:
		pol = schedule.GPipeP
		var s *schedule.Schedule
		if s, err = schedule.GPipe(p, nm); err == nil {
			orders = s.Orders
		}
	case 5:
		pol = []schedule.Policy{schedule.Megatron1F1B, schedule.DeepSpeedP, schedule.PipeDreamP}[rng.Intn(3)]
		var s *schedule.Schedule
		if s, err = schedule.OneFOneB(p, nm); err == nil {
			orders = s.Orders
		}
	case 6:
		// The opportunism ablation: Varuna's mean-timing order,
		// replayed strictly.
		pol = schedule.Policy{Name: "Varuna-strict-order"}
		var s *schedule.Schedule
		if s, err = VarunaOrders(p, nm, costs); err == nil {
			orders = s.Orders
		}
	}
	if err != nil {
		panic(fmt.Sprintf("pin config %d: %v", i, err))
	}
	if !pol.Rule && rng.Intn(4) == 0 {
		pol.Opportunistic = true
		pol.Name += "+opp"
	}

	var jitter, computeJitter float64
	if rng.Intn(4) == 0 {
		jitter = []float64{0, 0.1, 0.3}[rng.Intn(3)]
		computeJitter = []float64{0, 0.02, 0.1}[rng.Intn(3)]
	}
	seed := rng.Int63()
	var sf []float64
	if rng.Intn(4) == 0 {
		sf = make([]float64, p)
		for s := range sf {
			sf[s] = []float64{1, 1, 1.25, 1 + rng.Float64()}[rng.Intn(4)]
		}
	}
	mif := 0
	if rng.Intn(4) == 0 {
		mif = 1 + rng.Intn(2*p)
	}
	trace := rng.Intn(3) == 0
	brute := rng.Intn(3) == 0

	label := fmt.Sprintf("config %d: P=%d Nm=%d policy=%s jitter=%g/%g sf=%v mif=%d trace=%v brute=%v",
		i, p, nm, pol.Name, jitter, computeJitter, sf != nil, mif, trace, brute)
	return pinCase{label: label, build: func() Config {
		cfg := Config{
			Depth: p, Micros: nm, Policy: pol, Orders: orders, Costs: costs,
			JitterCV: jitter, ComputeJitterCV: computeJitter,
			SpeedFactor: sf, MaxInFlight: mif, CollectTrace: trace, DisableSteadyState: brute,
		}
		if jitter > 0 || computeJitter > 0 {
			cfg.Rand = simtime.NewRand(seed)
		}
		return cfg
	}}
}

// resultDigest hashes everything Run and EstimateMakespan report for c.
func resultDigest(c pinCase) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putErr := func(err error) {
		if err == nil {
			put(0)
			return
		}
		put(1)
		h.Write([]byte(err.Error()))
	}
	res, err := Run(c.build())
	putErr(err)
	put(int64(res.Makespan))
	put(int64(res.PipelineSpan))
	put(int64(res.Busy))
	put(int64(math.Float64bits(res.BubbleFrac)))
	put(int64(res.OpportunisticRuns))
	put(int64(len(res.StageEnds)))
	for _, t := range res.StageEnds {
		put(int64(t))
	}
	put(int64(len(res.Trace)))
	for _, sp := range res.Trace {
		put(int64(sp.Stage))
		put(int64(sp.Task.Kind))
		put(int64(sp.Task.Micro))
		put(int64(sp.Start))
		put(int64(sp.End))
	}
	est, err := EstimateMakespan(c.build())
	putErr(err)
	put(int64(est))
	return h.Sum64()
}

// TestExecutorResultPins replays every pinned config and requires its
// digest to match the recorded one. Which events the executor schedules
// and how the queue stores them are implementation details; what a run
// computes is not.
func TestExecutorResultPins(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", resultPinsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed pin line %q", sc.Text())
		}
		if i, err := strconv.Atoi(fields[0]); err != nil || i != len(want) {
			t.Fatalf("pin line %q out of order", sc.Text())
		}
		d, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("pin line %q: %v", sc.Text(), err)
		}
		want = append(want, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != resultPinCount {
		t.Fatalf("%d pins recorded, want %d", len(want), resultPinCount)
	}
	n := len(want)
	if testing.Short() {
		n /= 4
	}
	bad := 0
	for i := 0; i < n; i++ {
		c := resultPinCase(i)
		if got := resultDigest(c); got != want[i] {
			t.Errorf("%s: digest %016x, pinned %016x", c.label, got, want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
