package experiment

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"
)

// WriteCSV emits one row per (configuration, pattern, page) with mean and
// p95 response times in milliseconds for both localities — a
// plotting-friendly long format.
func WriteCSV(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "config", "pattern", "page",
		"local_mean_ms", "remote_mean_ms", "local_p95_ms", "remote_p95_ms",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	msf := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 1, 64)
	}
	for _, r := range results {
		for _, c := range r.Cells {
			row := []string{
				string(r.Spec.App), r.Spec.Policy.String(), c.Pattern, c.Page,
				msf(c.Local), msf(c.Remote), msf(c.LocalP95), msf(c.RemoteP95),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
