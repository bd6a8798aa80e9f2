package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"disttrain/internal/trace"
)

func TestSummaryFields(t *testing.T) {
	cfg := costConfig(ASP, 8, 10)
	cfg.Sharding = ShardLayerWise
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	if s.Algo != "asp" || s.Workers != 8 || s.Model != "resnet50" {
		t.Fatalf("summary identity wrong: %+v", s)
	}
	if s.InterGbps < 55 || s.InterGbps > 57 {
		t.Fatalf("gbps = %v", s.InterGbps)
	}
	if s.VirtualSec <= 0 || s.Throughput <= 0 || s.TotalBytes <= 0 {
		t.Fatalf("metrics missing: %+v", s)
	}
	if s.ComputeSec <= 0 {
		t.Fatal("no compute seconds")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	res, err := Run(context.Background(), realConfig(BSP, 2, 20, 13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if s.FinalTestAcc != res.FinalTestAcc {
		t.Fatalf("acc %v != %v", s.FinalTestAcc, res.FinalTestAcc)
	}
	if len(s.Trace) == 0 {
		t.Fatal("trace not exported")
	}
}

// TestTraceExportByteIdentical re-runs the same simulation and requires the
// exported Chrome trace to match byte for byte. Every worker's iteration-0
// compute span starts at ts 0, so this exercises exactly the equal-timestamp
// tie the old Ts-only sort.Slice left unordered.
func TestTraceExportByteIdentical(t *testing.T) {
	export := func() []byte {
		tr := trace.New()
		cfg := costConfig(BSP, 8, 6)
		cfg.Tracer = tr
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for rep := 0; rep < 3; rep++ {
		if got := export(); !bytes.Equal(first, got) {
			t.Fatalf("trace export differs across identical runs (rep %d)", rep)
		}
	}
}

func TestTracerCapturesTimeline(t *testing.T) {
	tr := trace.New()
	cfg := costConfig(ASP, 4, 5)
	cfg.Tracer = tr
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// compute and comm spans per worker, message spans per machine.
	for _, want := range []string{`"cat":"compute"`, `"name":"exchange","cat":"comm"`, `"net"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}
