package experiment

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mnp/internal/image"
	"mnp/internal/packet"
)

// WriteCSVs regenerates the paper's series figures and writes their
// raw data as CSV files into dir (created if needed), for plotting:
//
//	f8_art.csv       node,row,col,art_s,art_no_idle_s   (Figures 8–9)
//	f10_sweep.csv    segments,kb,completion_s,art_s,art_no_idle_s
//	f11_traffic.csv  node,row,col,tx,rx                 (Figure 11)
//	f12_timeline.csv minute,advertisements,requests,data
//	f13_progress.csv t_s,fraction_complete
//
// It returns the paths written.
func WriteCSVs(dir string, seed int64, ec EngineConfig) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	add := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteAll(rows); err != nil {
			f.Close()
			return err
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// Figures 8, 9 and 11 come from one 5-segment 20x20 run.
	res, err := sim20x20(ec, "csv 20x20", seed, 5)
	if err != nil {
		return nil, err
	}
	ct := res.CompletionTime
	var artRows, trafficRows [][]string
	for i := 0; i < res.Layout.N(); i++ {
		id := packet.NodeID(i)
		r, c, _ := res.Layout.GridCoord(id)
		from, ok := res.Collector.FirstAdvertisementHeard(id)
		if !ok {
			from = 0
		}
		artRows = append(artRows, []string{
			strconv.Itoa(i), strconv.Itoa(r), strconv.Itoa(c),
			fmt.Sprintf("%.1f", res.Collector.ActiveRadioTime(id, 0, ct).Seconds()),
			fmt.Sprintf("%.1f", res.Collector.ActiveRadioTime(id, from, ct).Seconds()),
		})
		trafficRows = append(trafficRows, []string{
			strconv.Itoa(i), strconv.Itoa(r), strconv.Itoa(c),
			strconv.Itoa(res.Collector.TxCount(id)),
			strconv.Itoa(res.Collector.RxCount(id)),
		})
	}
	if err := add("f8_art.csv", []string{"node", "row", "col", "art_s", "art_no_idle_s"}, artRows); err != nil {
		return nil, err
	}
	if err := add("f11_traffic.csv", []string{"node", "row", "col", "tx", "rx"}, trafficRows); err != nil {
		return nil, err
	}

	adv := res.Collector.WindowCounts(packet.ClassAdvertisement)
	req := res.Collector.WindowCounts(packet.ClassRequest)
	data := res.Collector.WindowCounts(packet.ClassData)
	var timelineRows [][]string
	for m := 0; m < len(data); m++ {
		a, r := 0, 0
		if m < len(adv) {
			a = adv[m]
		}
		if m < len(req) {
			r = req[m]
		}
		timelineRows = append(timelineRows, []string{
			strconv.Itoa(m), strconv.Itoa(a), strconv.Itoa(r), strconv.Itoa(data[m]),
		})
	}
	if err := add("f12_timeline.csv", []string{"minute", "advertisements", "requests", "data"}, timelineRows); err != nil {
		return nil, err
	}

	// Figure 10: the program-size sweep.
	var sweepRows [][]string
	for segs := 1; segs <= 10; segs++ {
		r, err := sim20x20(ec, fmt.Sprintf("csv F10 %d", segs), seed+int64(segs), segs)
		if err != nil {
			return nil, err
		}
		rct := r.CompletionTime
		sweepRows = append(sweepRows, []string{
			strconv.Itoa(segs),
			fmt.Sprintf("%.1f", float64(segs*image.SegmentBytes)/1024),
			fmt.Sprintf("%.1f", rct.Seconds()),
			fmt.Sprintf("%.1f", r.Collector.MeanActiveRadioTime(rct).Seconds()),
			fmt.Sprintf("%.1f", r.Collector.MeanActiveRadioTimeAfterFirstAdv(rct).Seconds()),
		})
	}
	if err := add("f10_sweep.csv", []string{"segments", "kb", "completion_s", "art_s", "art_no_idle_s"}, sweepRows); err != nil {
		return nil, err
	}

	// Figure 13: the propagation-progress curve of a single segment.
	res13, err := sim20x20(ec, "csv F13", seed, 1)
	if err != nil {
		return nil, err
	}
	ct13 := res13.CompletionTime
	var progressRows [][]string
	for pct := 0; pct <= 100; pct += 5 {
		t := ct13 * time.Duration(pct) / 100
		progressRows = append(progressRows, []string{
			fmt.Sprintf("%.1f", t.Seconds()),
			fmt.Sprintf("%.4f", res13.Collector.CompletedFractionAt(t)),
		})
	}
	if err := add("f13_progress.csv", []string{"t_s", "fraction_complete"}, progressRows); err != nil {
		return nil, err
	}
	return written, nil
}
