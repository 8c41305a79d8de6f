package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet maps workload -> metric -> values, one per run, in run order.
type runSet map[string]map[string][]float64

// loadRuns reads every <workload>.<run>.out file in dir: the captured
// standard output of one run, whose last line is the result.
func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	rs := runSet{}
	for _, f := range files {
		wl := strings.SplitN(filepath.Base(f), ".", 2)[0]
		res, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s: run failed its output checks", f)
		}
		if rs[wl] == nil {
			rs[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			rs[wl][name] = append(rs[wl][name], m.Value)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no *.out runs in %s", dir)
	}
	return rs, nil
}

func lastResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &res, nil
}

// compareMain prints, per workload and end-to-end metric, the median
// and quartiles of each run set, and with two sets the pair win count
// and the verdict. Runs pair up by file name order, so name the files
// of both sets alike (one per seed).
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] PARENT_DIR [CHANGE_DIR]")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	var change runSet
	if fs.NArg() == 2 {
		if change, err = loadRuns(fs.Arg(1)); err != nil {
			return err
		}
	}
	steady := true
	for _, w := range spec.Workloads {
		fmt.Printf("== %s ==\n", w.Name)
		for _, m := range spec.EndToEnd {
			a := parent[w.Name][m.Name]
			if len(a) == 0 {
				fmt.Printf("  %-14s no runs\n", m.Name)
				continue
			}
			q1, med, q3 := quartiles(a)
			sp := spread(a)
			if change == nil {
				mark := ""
				if m.Name != "setup_s" && sp > m.Bound/3 {
					mark = "  (spread above a third of the bound)"
					steady = false
				}
				fmt.Printf("  %-14s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f%s\n",
					m.Name, len(a), med, q1, q3, sp, m.Bound, mark)
				continue
			}
			b := change[w.Name][m.Name]
			if len(b) == 0 {
				fmt.Printf("  %-14s no change runs\n", m.Name)
				continue
			}
			cq1, cmed, cq3 := quartiles(b)
			lower := m.Better == "lower"
			wins, losses, ties := pairWins(a, b, lower)
			fmt.Printf("  %-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d losses %d ties %d of %d pairs  -> %s\n",
				m.Name, med, q1, q3, cmed, cq1, cq3, wins, losses, ties, min(len(a), len(b)),
				verdict(a, b, lower, m.Bound))
		}
	}
	if change == nil && !steady {
		fmt.Println("not steady: some spread exceeds a third of its bound")
	}
	return nil
}
