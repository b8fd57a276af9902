package hotnoc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// TestFigure1Golden pins cold Figure 1 at scale 8 bit for bit against the
// committed benchmark reference (perfbench/reference.json, read only):
// the SHA-256 of the result as `figure1 -json` prints it, the number of
// NoC decodes, and the number of simulated NoC cycles. Any change to the
// cycle kernel, the decode loop or the code construction that moves one
// simulated cycle fails it.
func TestFigure1Golden(t *testing.T) {
	raw, err := os.ReadFile("perfbench/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Figure1 map[string]struct {
			SHA256    string `json:"sha256"`
			Decodes   uint64 `json:"decodes"`
			SimCycles int64  `json:"sim_cycles"`
		} `json:"figure1"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	want, ok := ref.Figure1["8"]
	if !ok {
		t.Fatal("reference.json has no scale-8 Figure 1")
	}

	configs := []string{"A", "B", "C", "D", "E"}
	lab := NewLab(WithScale(8))
	outs, err := lab.SweepAll(context.Background(), SweepGrid(configs, Schemes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Figure1FromOutcomes(configs, outs)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want.SHA256 {
		t.Errorf("Figure 1 sha256 %s, want %s", got, want.SHA256)
	}
	if got := lab.Decodes(); got != want.Decodes {
		t.Errorf("Figure 1 ran %d decodes, want %d", got, want.Decodes)
	}

	// Simulated cycles: one calibration decode per configuration, and per
	// orbit the static-placement decode plus every leg's decode and
	// migration.
	var cycles int64
	built := map[string]bool{}
	for _, o := range outs {
		if !built[o.Point.Config] {
			built[o.Point.Config] = true
			cycles += o.Built.BlockCycles
		}
		cycles += o.Built.BlockCycles
		for _, leg := range o.Result.Legs {
			cycles += leg.DecodeCycles + leg.Migration.Cycles
		}
	}
	if cycles != want.SimCycles {
		t.Errorf("Figure 1 simulated %d NoC cycles, want %d", cycles, want.SimCycles)
	}
}
