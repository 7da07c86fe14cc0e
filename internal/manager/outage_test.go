package manager

import (
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/calibrate"
	"repro/internal/checkpoint"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// managerZoned builds a manager on a 4-zone topology cluster.
func managerZoned(t *testing.T, repl checkpoint.Policy) *Manager {
	t.Helper()
	return managerOn(t, hw.SpotTopology(4, 2, 5), repl)
}

// managerOn builds a manager on an 80-GPU cluster with the given
// topology.
func managerOn(t *testing.T, topo hw.Topology, repl checkpoint.Policy) *Manager {
	t.Helper()
	cluster := hw.SpotCluster(hw.NC6v3, 80)
	cluster.Topo = topo
	tb := testbed.New(cluster, 31)
	spec := model.GPT2XL2B()
	params, err := calibrate.Run(spec, tb, calibrate.Options{
		MicroSizes:  []int{4, 8},
		GPUsPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 53)
	if err != nil {
		t.Fatal(err)
	}
	in := autoconfig.Inputs{
		Spec:        spec,
		Cuts:        cuts,
		Params:      params,
		GPUMem:      16 << 30,
		MTotal:      8192,
		GPUsPerNode: 1,
	}
	opts := DefaultOptions()
	opts.Replication = repl
	return newManager(in, tb, opts, 77)
}

// zoneOutageTrace allocates n 1-GPU VMs at t=0 and kills every VM in
// the zone (id % 4 == zone) at the given instant, mirroring what the
// scenario compiler emits for a zone-outage event.
func zoneOutageTrace(n, zone int, at simtime.Time) ([]spot.Event, []DomainOutage) {
	var events []spot.Event
	for i := 0; i < n; i++ {
		events = append(events, spot.Event{At: 0, Kind: spot.Alloc, VM: i, GPUs: 1})
	}
	for i := zone; i < n; i += 4 {
		events = append(events, spot.Event{At: at, Kind: spot.Preempt, VM: i, GPUs: 1})
	}
	return events, []DomainOutage{{At: at, Level: hw.DomainZone, Domain: zone}}
}

func TestZoneOutageFailsOverWithReplication(t *testing.T) {
	mg := managerZoned(t, checkpoint.Policy{Replicas: 2, Spread: hw.DomainZone})
	at := simtime.Time(4 * simtime.Hour)
	events, outs := zoneOutageTrace(64, 1, at)
	mg.Outages = outs
	points, stats, err := mg.RunTimeline(events, 8*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers != 1 || stats.UnrecoverableOutages != 0 {
		t.Fatalf("failovers=%d unrecoverable=%d, want 1/0", stats.Failovers, stats.UnrecoverableOutages)
	}
	if stats.FailoverDowntime <= 0 {
		t.Fatal("failover must cost cross-zone fetch downtime")
	}
	// Progress survives: only the uncheckpointed tail rolls back, never
	// the whole run.
	if stats.LostMiniBatches >= checkpointEvery {
		t.Fatalf("lost %d mini-batches, want < checkpointEvery (%d)", stats.LostMiniBatches, checkpointEvery)
	}
	if stats.Examples <= 0 || stats.MiniBatches <= 0 {
		t.Fatal("job must keep its progress across the failover")
	}
	foundFailover := false
	for _, p := range points {
		if p.Event == "failover" {
			foundFailover = true
		}
		if p.Event == "outage-loss" {
			t.Fatal("replicated run must not report outage-loss")
		}
	}
	if !foundFailover {
		t.Fatal("timeline must record the failover point")
	}
}

func TestZoneOutageDiscardsProgressWithoutReplication(t *testing.T) {
	mg := managerZoned(t, checkpoint.Policy{})
	at := simtime.Time(4 * simtime.Hour)
	events, outs := zoneOutageTrace(64, 1, at)
	mg.Outages = outs
	points, stats, err := mg.RunTimeline(events, 8*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnrecoverableOutages != 1 || stats.Failovers != 0 {
		t.Fatalf("unrecoverable=%d failovers=%d, want 1/0", stats.UnrecoverableOutages, stats.Failovers)
	}
	// Hours of checkpointed work die with the zone.
	if stats.LostMiniBatches < checkpointEvery {
		t.Fatalf("lost %d mini-batches, want at least one checkpoint interval", stats.LostMiniBatches)
	}
	foundLoss := false
	for _, p := range points {
		if p.Event == "outage-loss" {
			foundLoss = true
		}
	}
	if !foundLoss {
		t.Fatal("timeline must record the outage-loss point")
	}
}

func TestOutageVacuousOnFlatCluster(t *testing.T) {
	// Without a topology there are no failure domains: the schedule is
	// inert and the run matches a plain preemption trace.
	mg := managerFor(t)
	at := simtime.Time(4 * simtime.Hour)
	events, outs := zoneOutageTrace(64, 1, at)
	mg.Outages = outs
	_, stats, err := mg.RunTimeline(events, 8*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers != 0 || stats.UnrecoverableOutages != 0 || stats.FailoverDowntime != 0 {
		t.Fatalf("flat cluster outage stats must stay zero: %+v", stats)
	}
}

func TestOutageTimelineDeterministic(t *testing.T) {
	run := func() ([]TimelinePoint, Stats) {
		mg := managerZoned(t, checkpoint.Policy{Replicas: 2, Spread: hw.DomainZone})
		at := simtime.Time(3 * simtime.Hour)
		events, outs := zoneOutageTrace(64, 2, at)
		mg.Outages = outs
		points, stats, err := mg.RunTimeline(events, 6*simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return points, stats
	}
	p1, s1 := run()
	p2, s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("timelines diverged")
	}
}

// TestOutageAfterFailoverSettlesOnSurvivors pins settlement over the
// checkpoint's surviving VMs. Four zones in two regions, no VM in zone
// 3: a zone-2 failover leaves region 1 without checkpoint state, so a
// region-1 outage at the same instant is vacuous at either spread. A
// record that still counts region 1 as a holder after the zone
// failover settles it as a second failover (region spread) or as an
// unrecoverable loss (zone spread).
func TestOutageAfterFailoverSettlesOnSurvivors(t *testing.T) {
	topo := hw.SpotTopology(4, 2, 5)
	topo.ZonesPerRegion = 2
	at := simtime.Time(4 * simtime.Hour)
	var events []spot.Event
	for id := 0; id < 64; id++ {
		if id%4 != 3 {
			events = append(events, spot.Event{At: 0, Kind: spot.Alloc, VM: id, GPUs: 1})
		}
	}
	for id := 2; id < 64; id += 4 {
		events = append(events, spot.Event{At: at, Kind: spot.Preempt, VM: id, GPUs: 1})
	}
	for _, spread := range []hw.DomainLevel{hw.DomainZone, hw.DomainRegion} {
		t.Run(spread.String(), func(t *testing.T) {
			mg := managerOn(t, topo, checkpoint.Policy{Replicas: 2, Spread: spread})
			mg.Outages = []DomainOutage{
				{At: at, Level: hw.DomainZone, Domain: 2},
				{At: at, Level: hw.DomainRegion, Domain: 1},
			}
			points, stats, err := mg.RunTimeline(events, 8*simtime.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Failovers != 1 || stats.UnrecoverableOutages != 0 {
				t.Fatalf("failovers=%d unrecoverable=%d, want 1/0", stats.Failovers, stats.UnrecoverableOutages)
			}
			for _, p := range points {
				if p.Event == "outage-loss" {
					t.Fatalf("outage-loss at %v: region 1 held no checkpoint state after the zone-2 failover", p.At)
				}
			}
		})
	}
}
