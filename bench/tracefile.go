package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// traceOps caps how many window ops' spans the trace file holds; phase
// ops (repair, drain) are always written. The per-layer metrics are
// computed from every span, whatever the file keeps.
const traceOps = 2000

// traceSpan is one line of <workload>.trace.json.
type traceSpan struct {
	ID      int     `json:"id"`
	Op      uint64  `json:"op"`
	Name    string  `json:"name"`
	Node    int     `json:"node"` // cluster node (S3..S5) or -1
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // id of the enclosing span, 0 for none
}

// writeTrace writes the attributed spans as a JSON array, one span per
// line, ordered S1 spans first and then by start time.
func writeTrace(dir string, in *layerInput) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, in.sp.name+".trace.json"))
	if err != nil {
		return err
	}
	defer f.Close()

	keep := make(map[uint64]bool)
	for i, o := range in.ops {
		if i < traceOps || o.kind == opRepair || o.kind == opDrain {
			keep[o.op] = true
		}
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	first := true
	for i, s := range in.merged {
		if !keep[s.op] {
			continue
		}
		line, err := json.Marshal(traceSpan{
			ID: i + 1, Op: s.op, Name: spanName(s.seam, s.kind), Node: int(s.node),
			StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3, Parent: int(s.parent) + 1,
		})
		if err != nil {
			return err
		}
		if !first {
			w.WriteString(",\n")
		}
		first = false
		w.Write(line)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
