package topo

import (
	"testing"

	"disttrain/internal/cluster"
)

func TestNewGroupsMatchCluster(t *testing.T) {
	c := cluster.Paper10G(24)
	tp, err := New(c, 24)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Machines() != 6 {
		t.Fatalf("machines = %d, want 6", tp.Machines())
	}
	for m, g := range tp.Groups {
		if len(g) != 4 {
			t.Fatalf("machine %d has %d ranks, want 4", m, len(g))
		}
		for _, r := range g {
			if c.MachineOfWorker(r) != m || tp.MachineOf[r] != m {
				t.Fatalf("rank %d misplaced on machine %d", r, m)
			}
		}
	}
	if tp.Groups[0][0] != 0 || tp.Groups[5][0] != 20 {
		t.Fatalf("lowest ranks per machine: %v", tp.Groups)
	}
}

func TestNewPartialLastMachine(t *testing.T) {
	// 10 workers on a 3-machine × 4-slot cluster: last group holds 2.
	tp, err := New(cluster.Paper10G(12), 10)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Machines() != 3 || len(tp.Groups[2]) != 2 {
		t.Fatalf("groups = %v", tp.Groups)
	}
	if tp.MachineOf[0] != tp.MachineOf[1] || tp.MachineOf[0] == tp.MachineOf[4] {
		t.Fatalf("machine of ranks 0, 1, 4: %v", tp.MachineOf)
	}
}

func TestNewRejects(t *testing.T) {
	c := cluster.Paper10G(8)
	if _, err := New(c, 0); err == nil {
		t.Fatal("want error for 0 workers")
	}
	if _, err := New(c, 9); err == nil {
		t.Fatal("want error for workers > cluster slots")
	}
	if _, err := New(cluster.Config{}, 4); err == nil {
		t.Fatal("want error for invalid cluster")
	}
}

func TestTorusShape(t *testing.T) {
	cases := []struct {
		n, rows, cols int
		ok            bool
	}{
		{4, 2, 2, true},
		{6, 2, 3, true},
		{8, 2, 4, true},
		{12, 3, 4, true},
		{24, 4, 6, true},
		{100, 10, 10, true},
		{1024, 32, 32, true},
		{257, 0, 0, false}, // prime
		{7, 0, 0, false},   // prime
		{3, 0, 0, false},   // too small
		{2, 0, 0, false},
	}
	for _, c := range cases {
		rows, cols, err := TorusShape(c.n)
		if c.ok != (err == nil) {
			t.Fatalf("TorusShape(%d): err = %v, want ok=%v", c.n, err, c.ok)
		}
		if c.ok && (rows != c.rows || cols != c.cols) {
			t.Fatalf("TorusShape(%d) = %d×%d, want %d×%d", c.n, rows, cols, c.rows, c.cols)
		}
		if c.ok && rows*cols != c.n {
			t.Fatalf("TorusShape(%d): %d×%d does not cover", c.n, rows, cols)
		}
	}
}
