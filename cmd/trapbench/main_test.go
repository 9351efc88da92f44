package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the output block of ../../EXPERIMENTS.md")

// TestRun drives every subcommand through the one entry point main
// uses. A row with wantOut lists strings its output must contain.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
		wantOut []string
	}{
		{name: "single figure", args: []string{"-fig", "fig5", "-trials", "100"}, wantOut: []string{"FIG5"}},
		{name: "unknown figure", args: []string{"-fig", "fig99", "-trials", "100"}, wantErr: true},
		{name: "figures reject zero trials", args: []string{"-fig", "mcval", "-trials", "0"}, wantErr: true},

		{name: "avail valid config", args: []string{"avail", "-p", "0.5"}, wantOut: []string{"storage saving: 76.6%"}},
		{name: "avail rejects p below 0", args: []string{"avail", "-p", "-0.1"}, wantErr: true},
		{name: "avail rejects p above 1", args: []string{"avail", "-p", "1.5"}, wantErr: true},
		// (2,3,2) holds 15 nodes but n-k+1 = 8.
		{name: "avail rejects mismatched trapezoid", args: []string{"avail", "-hh", "2", "-p", "0.5"}, wantErr: true},
		{name: "avail rejects a below 0", args: []string{"avail", "-a", "-1", "-p", "0.5"}, wantErr: true},
		{name: "avail rejects w above s1", args: []string{"avail", "-w", "9", "-p", "0.5"}, wantErr: true},

		{name: "sim repaired mode", args: []string{"sim", "-trials", "200", "-blocksize", "128"}, wantOut: []string{"(repaired)"}},
		{name: "sim steady mode", args: []string{"sim", "-trials", "200", "-blocksize", "128", "-steady"}, wantOut: []string{"(steady-state (no repair))"}},
		{name: "sim rejects mismatched trapezoid", args: []string{"sim", "-hh", "2", "-trials", "10", "-blocksize", "128"}, wantErr: true},
		{name: "sim rejects b of 0", args: []string{"sim", "-b", "0", "-trials", "10", "-blocksize", "128"}, wantErr: true},
		{name: "sim rejects zero trials", args: []string{"sim", "-trials", "0"}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tc.args)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted; printed %q", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(&bytes.Buffer{}, []string{"-fig", "fig5", "-trials", "100", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "k,TRAP-FR,TRAP-ERC") {
		t.Fatalf("csv header wrong: %q", string(data[:40]))
	}
}

// experimentsFence opens the generated block of EXPERIMENTS.md; the
// block runs from the line after it to the file's last "```" line.
const experimentsFence = "```text\n"

// TestExperimentsRecord pins EXPERIMENTS.md to the tool: its fenced
// block is byte-identical to `trapbench -fig all -seed 1` at the
// default trial count. -update rewrites the block.
func TestExperimentsRecord(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-fig", "all", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(doc, []byte(experimentsFence))
	if start < 0 {
		t.Fatalf("%s has no %q block", path, strings.TrimSpace(experimentsFence))
	}
	start += len(experimentsFence)
	if *update {
		doc = append(append(doc[:start:start], out.Bytes()...), "```\n"...)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	block, ok := bytes.CutSuffix(doc[start:], []byte("```\n"))
	if !ok {
		t.Fatalf("%s does not end with the block's closing fence", path)
	}
	if bytes.Equal(block, out.Bytes()) {
		return
	}
	got, want := strings.Split(out.String(), "\n"), strings.Split(string(block), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s differs from `trapbench -fig all -seed 1` at block line %d:\nrecorded %q\nproduced %q\nafter a deliberate change, run `go test ./cmd/trapbench -run ExperimentsRecord -update`",
				path, i+1, want[i], got[i])
		}
	}
	t.Fatalf("%s's block has %d lines, the tool printed %d", path, len(want), len(got))
}
