package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDistBenchSmall(t *testing.T) {
	p := DefaultParams()
	p.Rank = 3
	rep, err := DistBenchWith(p, DistBenchConfig{
		Dims:       []int{80, 60, 40},
		NNZ:        4000,
		TrueRank:   3,
		Noise:      0.05,
		GenSeed:    p.Seed,
		Iters:      3,
		WorkerSets: []int{1, 2},
		CSF:        true,
		Chaos:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// serial coo + serial csf + {1,2} workers + chaos row.
	if len(rep.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d: %+v", len(rep.Rows), rep.Rows)
	}
	if !rep.AllExact {
		t.Fatalf("distributed runs diverged from serial: %+v", rep.Rows)
	}
	if !rep.Rows[0].Serial || rep.Rows[0].Workers != 0 || rep.Rows[0].Kernel != "coo" {
		t.Fatalf("first row is not the serial COO reference: %+v", rep.Rows[0])
	}
	if !rep.Rows[1].Serial || rep.Rows[1].Kernel != "csf" {
		t.Fatalf("second row is not the serial CSF reference: %+v", rep.Rows[1])
	}
	chaosRow := rep.Rows[len(rep.Rows)-1]
	if !chaosRow.Chaos || chaosRow.Serial {
		t.Fatalf("last row is not the chaos row: %+v", chaosRow)
	}
	if !chaosRow.BitwiseSame {
		t.Fatalf("chaos run diverged from serial: %+v", chaosRow)
	}
	for _, row := range rep.Rows {
		if row.Serial {
			continue
		}
		if row.WireSentMB <= 0 || row.WireRecvMB <= 0 || row.WireShardMB <= 0 {
			t.Fatalf("worker row missing wire bytes: %+v", row)
		}
		if row.WallMs <= 0 {
			t.Fatalf("worker row missing wall time: %+v", row)
		}
	}
	if rep.FactorWireReduction <= 0 {
		t.Fatalf("factor-wire reduction vs full broadcasts not reported: %+v", rep)
	}
	var buf bytes.Buffer
	full := &DistBenchReport{Compute: rep, AllExact: rep.AllExact}
	if err := full.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Satellite check: serial rows are self-describing — `"serial": true`
	// with the workers key omitted — and the delta codec column is present.
	js := buf.String()
	if !strings.Contains(js, `"serial": true`) {
		t.Fatalf("JSON missing serial marker:\n%s", js)
	}
	if strings.Contains(js, `"workers": 0`) {
		t.Fatalf("JSON still emits workers: 0 for the serial row:\n%s", js)
	}
	if !strings.Contains(js, `"wire_delta_frames"`) {
		t.Fatalf("JSON missing wire_delta_frames column:\n%s", js)
	}
	var back DistBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if RenderDistBench(full) == "" {
		t.Fatal("empty render")
	}
}
