package experiment

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteCSVs regenerates the series figures as CSV and checks their
// structure. This runs the 20x20 workloads, so it is skipped in -short
// mode.
func TestWriteCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("CSV regeneration skipped in -short mode")
	}
	dir := t.TempDir()
	paths, err := WriteCSVs(dir, 42, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		cols int
		rows int // minimum data rows
	}{
		"f8_art.csv":       {cols: 5, rows: 400},
		"f11_traffic.csv":  {cols: 5, rows: 400},
		"f12_timeline.csv": {cols: 4, rows: 5},
		"f10_sweep.csv":    {cols: 5, rows: 10},
		"f13_progress.csv": {cols: 2, rows: 21},
	}
	if len(paths) != len(want) {
		t.Fatalf("wrote %d files, want %d", len(paths), len(want))
	}
	for name, shape := range want {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(records) < shape.rows+1 {
			t.Fatalf("%s: %d rows, want >= %d", name, len(records)-1, shape.rows)
		}
		for i, rec := range records {
			if len(rec) != shape.cols {
				t.Fatalf("%s row %d: %d columns, want %d", name, i, len(rec), shape.cols)
			}
		}
		// Data cells of the first row parse as numbers.
		for _, cell := range records[1] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("%s: non-numeric cell %q", name, cell)
			}
		}
	}
	// The progress curve ends at 1.0.
	f, _ := os.Open(filepath.Join(dir, "f13_progress.csv"))
	records, _ := csv.NewReader(f).ReadAll()
	f.Close()
	last := records[len(records)-1]
	if last[1] != "1.0000" {
		t.Fatalf("progress curve ends at %s, want 1.0000", last[1])
	}
}
