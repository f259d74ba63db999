package sim

import (
	"context"
	"errors"
	"testing"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func testJob(t testing.TB) (Cluster, JobSpec) {
	t.Helper()
	w, err := workloads.ByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(AtomNode(8)), JobSpec{
		Name:        "wordcount",
		Spec:        w.Spec(),
		DataPerNode: units.GB,
		BlockSize:   256 * units.MB,
		Frequency:   1.8 * units.GHz,
	}
}

func TestValidateWrapsSentinels(t *testing.T) {
	cluster, job := testJob(t)

	bad := cluster
	bad.Nodes = 0
	if err := bad.Validate(); !errors.Is(err, ErrInvalidCluster) {
		t.Errorf("zero-node cluster: %v, want wrapped ErrInvalidCluster", err)
	}

	noName := job
	noName.Name = ""
	if err := noName.Validate(); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("nameless job: %v, want wrapped ErrInvalidJob", err)
	}

	offGrid := job
	offGrid.Frequency = 2.5 * units.GHz
	if _, err := Run(context.Background(), cluster, offGrid); !errors.Is(err, ErrUnsupportedFrequency) {
		t.Errorf("2.5GHz run: %v, want wrapped ErrUnsupportedFrequency", err)
	}
}

func TestRunCtxEmitsSpanAndGauges(t *testing.T) {
	cluster, job := testJob(t)
	c := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), c)

	rep, err := Run(ctx, cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.SpanCount("sim.run"); n != 1 {
		t.Errorf("sim.run span count %d, want 1", n)
	}
	snap := c.Snapshot()
	name := "sim.phase." + PhaseMap.String() + ".seconds"
	got, ok := snap.Gauges[name]
	if !ok {
		t.Fatalf("gauge %s missing; gauges: %v", name, snap.Gauges)
	}
	if want := float64(rep.Phases[PhaseMap].Time); got != want {
		t.Errorf("gauge %s = %v, want %v", name, got, want)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	cluster, job := testJob(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cluster, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: %v, want wrapped context.Canceled", err)
	}
}
