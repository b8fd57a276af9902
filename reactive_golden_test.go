package hotnoc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"hotnoc"
	"hotnoc/server/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current code")

const reactiveGoldenPath = "testdata/golden/reactive_s8.json"

// reactiveGoldenGrid is the pinned mixed grid: configurations A and E,
// under X-Y shift and rotation, each at three sensor triggers (one that
// fires at every block boundary, two near the operating point) and at
// migration periods 1 and 4.
func reactiveGoldenGrid(t *testing.T) []hotnoc.SweepPoint {
	var pts []hotnoc.SweepPoint
	for _, config := range []string{"A", "E"} {
		for _, name := range []string{"X-Y Shift", "Rot"} {
			scheme, err := hotnoc.SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, trigger := range []float64{41, 84, 86} {
				pts = append(pts, hotnoc.ReactivePoint(config, hotnoc.ReactiveConfig{
					Scheme: scheme, TriggerC: trigger,
					SimBlocks: 240, WarmupBlocks: 100, PeaksEvery: 8,
				}))
			}
			for _, blocks := range []int{1, 4} {
				pts = append(pts, hotnoc.PeriodicPoint(config, scheme, blocks))
			}
		}
	}
	return pts
}

// TestReactiveGolden pins the reactive and periodic evaluation stages
// bit for bit: the outcomes of a scale-8 mixed grid, one wire-format
// outcome per line, must match the committed fixture byte for byte. Run
// with -update-golden to regenerate it after an intended change.
func TestReactiveGolden(t *testing.T) {
	lab := hotnoc.NewLab(hotnoc.WithScale(8))
	outs, err := lab.SweepAll(context.Background(), reactiveGoldenGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, o := range outs {
		if err := enc.Encode(wire.FromOutcome(i, o)); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(reactiveGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", reactiveGoldenPath, buf.Len())
		return
	}
	want, err := os.ReadFile(reactiveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		for i, line := range bytes.Split(want, []byte("\n")) {
			if i >= len(got) || !bytes.Equal(got[i], line) {
				t.Fatalf("outcome %d differs from %s:\n got %s\nwant %s", i, reactiveGoldenPath, lineAt(got, i), line)
			}
		}
		t.Fatalf("output has %d lines, %s has fewer", len(got), reactiveGoldenPath)
	}
}

func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
