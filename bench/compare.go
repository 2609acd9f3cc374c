package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per (workload, end-to-end metric) present in both
// reports, both medians, both inter-quartile ranges, the relative change and
// the bound, and marks each row:
//
//	ok          the change is within the bound
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either run's own spread is wider than the bound, so a change
//	            of that size cannot be told from noise
//
// It reports whether any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s  commit %s seed %d seconds %g GOMAXPROCS %d\n", pathA, a.Machine.Commit, a.Machine.Seed, a.Machine.Seconds, a.Machine.GOMAXPROCS)
	fmt.Fprintf(out, "b: %s  commit %s seed %d seconds %g GOMAXPROCS %d\n", pathB, b.Machine.Commit, b.Machine.Seed, b.Machine.Seconds, b.Machine.GOMAXPROCS)
	if a.Machine.Seconds != b.Machine.Seconds {
		fmt.Fprintln(out, "warning: the two runs used different -seconds, so their op counts differ")
	}
	fmt.Fprintf(out, "%-14s %-16s %12s %8s %12s %8s %9s %7s  %s\n", "workload", "metric", "a median", "a IQR%", "b median", "b IQR%", "change%", "bound%", "verdict")
	rows := 0
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name || wa.EndToEnd == nil || wb.EndToEnd == nil {
				continue
			}
			for _, m := range endToEnd {
				sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
				// change is positive when b is worse, whatever the direction.
				change := (sb.Value - sa.Value) / sa.Value
				if m.Better == "higher" {
					change = -change
				}
				verdict := "ok"
				switch {
				case sa.spread() > m.Bound || sb.spread() > m.Bound:
					verdict = "unresolved"
				case change > m.Bound:
					verdict = "worse"
					worse = true
				}
				fmt.Fprintf(out, "%-14s %-16s %12.6g %8.2f %12.6g %8.2f %+9.2f %7.1f  %s\n",
					wa.Name, m.Name, sa.Value, sa.spread()*100, sb.Value, sb.spread()*100, change*100, m.Bound*100, verdict)
				rows++
			}
			// Any increase of the failure ratio is a regression.
			verdict := "ok"
			if wb.FailRatio > wa.FailRatio {
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(out, "%-14s %-16s %12.6g %8s %12.6g %8s %9s %7s  %s\n", wa.Name, "fail_ratio", wa.FailRatio, "", wb.FailRatio, "", "", "any", verdict)
			rows++
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two reports share no workload with end-to-end metrics")
	}
	return worse, nil
}
