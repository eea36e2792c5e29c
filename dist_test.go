package cstf_test

import (
	"math"
	"testing"

	"cstf"
	"cstf/internal/cpals"
)

// serialCSFHash is the golden hash of the single-process CSF solve of x
// with the options of o — the result the dist algorithm must reproduce.
func serialCSFHash(t *testing.T, x *cstf.Tensor, o cstf.Options) string {
	t.Helper()
	res, err := cpals.Solve(internalTensor(x), cpals.Options{Rank: o.Rank, MaxIters: o.MaxIters, Seed: o.Seed, CSFKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	return resultHash(res)
}

// TestDistAlgorithmMatchesSerial runs the public Dist path end to end with
// in-process local workers and checks bitwise identity with the serial
// solve of the same (CSF) kernel, and closeness to Serial's COO kernel.
func TestDistAlgorithmMatchesSerial(t *testing.T) {
	x := cstf.LowRankTensor(11, 2500, 3, 0.01, 50, 40, 30)
	base := cstf.Options{Rank: 3, MaxIters: 4, NoConvergenceCheck: true, Seed: 5}

	so := base
	so.Algorithm = cstf.Serial
	coo, err := cstf.Decompose(x, so)
	if err != nil {
		t.Fatal(err)
	}

	do := base
	do.Algorithm = cstf.Dist
	do.Dist.LocalWorkers = 4
	got, err := cstf.Decompose(x, do)
	if err != nil {
		t.Fatal(err)
	}
	if h, want := publicHash(got), serialCSFHash(t, x, do); h != want {
		t.Fatalf("dist hash %s, serial CSF %s", h[:12], want[:12])
	}
	if got.Iters != coo.Iters || len(got.Fits) != len(coo.Fits) {
		t.Fatalf("shape mismatch: iters %d/%d fits %d/%d", got.Iters, coo.Iters, len(got.Fits), len(coo.Fits))
	}
	for i := range coo.Fits {
		if math.Abs(got.Fits[i]-coo.Fits[i]) > 1e-9 {
			t.Fatalf("fit[%d]: CSF %v, COO %v", i, got.Fits[i], coo.Fits[i])
		}
	}
}

// Duplicate coordinates (a tensor built with Append and never Dedup'ed)
// are separate leaves of the workers' CSF trees, summed in storage order
// as in the serial CSF solve: dist reproduces it bitwise on 1, 2 and 4
// workers.
func TestDistDuplicateCoordinatesMatchSerialCSF(t *testing.T) {
	src := cstf.LowRankTensor(13, 2000, 3, 0.01, 40, 30, 20)
	x := cstf.NewTensor(src.Dims()...)
	for i := 0; i < src.NNZ(); i++ {
		idx, v := src.Entry(i)
		x.Append(v, idx...)
		if i%3 == 0 { // the same coordinate again, with another value
			x.Append(0.5*v+1, idx...)
		}
	}
	o := cstf.Options{Algorithm: cstf.Dist, Rank: 3, MaxIters: 4, NoConvergenceCheck: true, Seed: 5}
	want := serialCSFHash(t, x, o)
	for _, n := range []int{1, 2, 4} {
		o.Dist.LocalWorkers = n
		d, err := cstf.Decompose(x, o)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if h := publicHash(d); h != want {
			t.Fatalf("%d workers: hash %s, serial CSF %s", n, h[:12], want[:12])
		}
	}
}

// A first-order tensor has no fibers for the CSF kernel to walk: dist runs
// it on COO shards, bitwise equal to Serial.
func TestDistFirstOrderTensor(t *testing.T) {
	x := cstf.NewTensor(20)
	for i := 0; i < 20; i += 2 {
		x.Append(float64(i+1), i)
	}
	o := cstf.Options{Algorithm: cstf.Serial, Rank: 1, MaxIters: 2, NoConvergenceCheck: true}
	want, err := cstf.Decompose(x, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Algorithm = cstf.Dist
	o.Dist.LocalWorkers = 2
	got, err := cstf.Decompose(x, o)
	if err != nil {
		t.Fatal(err)
	}
	if h, w := publicHash(got), publicHash(want); h != w {
		t.Fatalf("dist hash %s, serial %s", h[:12], w[:12])
	}
}

// TestMetricsSeparateRealFromSimulated is the field-separation audit as an
// executable check: a Dist run reports only measured numbers (wall clock,
// wire bytes) with the simulated cost model at zero, and a QCOO run reports
// only modeled numbers with the measured group at zero. Code reading the
// wrong counter therefore reads zero, never a silently wrong value.
func TestMetricsSeparateRealFromSimulated(t *testing.T) {
	x := cstf.LowRankTensor(11, 1500, 3, 0.01, 40, 30, 20)
	base := cstf.Options{Rank: 3, MaxIters: 2, NoConvergenceCheck: true, Seed: 5}

	do := base
	do.Algorithm = cstf.Dist
	do.Dist.LocalWorkers = 2
	dd, err := cstf.Decompose(x, do)
	if err != nil {
		t.Fatal(err)
	}
	m := dd.Metrics
	if m.WallSeconds <= 0 || m.WireBytesSent <= 0 || m.WireBytesRecv <= 0 || m.DistWorkers != 2 {
		t.Fatalf("dist run missing real measurements: %+v", m)
	}
	if m.SimSeconds != 0 || m.RemoteBytes != 0 || m.LocalBytes != 0 || m.Shuffles != 0 || m.Flops != 0 {
		t.Fatalf("dist run leaked simulated metrics: %+v", m)
	}

	qo := base
	qo.Algorithm = cstf.QCOO
	qd, err := cstf.Decompose(x, qo)
	if err != nil {
		t.Fatal(err)
	}
	m = qd.Metrics
	if m.SimSeconds <= 0 || m.RemoteBytes <= 0 {
		t.Fatalf("qcoo run missing simulated metrics: %+v", m)
	}
	if m.WallSeconds != 0 || m.WireBytesSent != 0 || m.WireBytesRecv != 0 || m.DistWorkers != 0 {
		t.Fatalf("qcoo run leaked real-measurement metrics: %+v", m)
	}
}

// TestDistChaosKillThroughPublicAPI drives a real worker kill through the
// public ChaosSpec and checks the run survives with the same factorization.
func TestDistChaosKillThroughPublicAPI(t *testing.T) {
	x := cstf.LowRankTensor(11, 2500, 3, 0.01, 50, 40, 30)
	do := cstf.Options{Algorithm: cstf.Dist, Rank: 3, MaxIters: 4, NoConvergenceCheck: true, Seed: 5}
	do.Dist.LocalWorkers = 3
	do.Faults.Chaos = &cstf.ChaosSpec{NodeCrashes: 1, HorizonStages: 8, Seed: 3}
	got, err := cstf.Decompose(x, do)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.WorkerDeaths != 1 {
		t.Fatalf("want one real worker death, got %+v", got.Metrics)
	}
	if h, want := publicHash(got), serialCSFHash(t, x, do); h != want {
		t.Fatalf("hash after kill %s, serial CSF %s", h[:12], want[:12])
	}
}
