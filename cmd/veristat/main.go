// Command veristat batch-verifies assembly programs and prints per-program
// verifier statistics, like the kernel's veristat tool.
//
// Usage:
//
//	veristat [-version bpf-next] [-sanitize] prog1.s prog2.s ...
//
// Each input file is assembly in the repository dialect. Header comment
// directives set program attributes:
//
//	; prog_type: kprobe
//	; attach: contention_begin
//	; nongpl
//
// The standard map fixture is available: fd 3 = array(64), fd 4 =
// hash(8,48), fd 5 = queue(16), fd 6 = prog_array, fd 7 = ringbuf.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
)

func main() {
	var (
		version  = flag.String("version", "bpf-next", "kernel version: v5.15, v6.1 or bpf-next")
		sanitize = flag.Bool("sanitize", false, "apply the BVF sanitizer and report footprint")
	)
	flag.Parse()
	v, err := kernel.ParseVersion(*version)
	if err != nil {
		fmt.Fprintf(os.Stderr, "veristat: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "veristat: no input files")
		os.Exit(2)
	}

	k := kernel.New(kernel.Config{Version: v, Sanitize: *sanitize})
	fixture := []maps.Spec{
		{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr"},
		{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 8, Name: "hash"},
		{Type: maps.Queue, ValueSize: 16, MaxEntries: 4, Name: "q"},
		{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 2, Name: "jt"},
		{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"},
	}
	for _, spec := range fixture {
		if _, err := k.CreateMap(spec); err != nil {
			fmt.Fprintf(os.Stderr, "veristat: fixture: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("%-28s %-10s %-8s %-8s %-8s %-10s\n",
		"Program", "Verdict", "Insns", "States", "Peak", "Footprint")
	exitCode := 0
	for _, path := range flag.Args() {
		name := path
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "veristat: %v\n", err)
			exitCode = 1
			continue
		}
		prog, err := buildProgram(string(src))
		if err != nil {
			fmt.Printf("%-28s %-10s %v\n", name, "ASMFAIL", err)
			exitCode = 1
			continue
		}
		lp, err := k.LoadProgram(prog)
		if err != nil {
			msg := err.Error()
			if len(msg) > 60 {
				msg = msg[:60] + "..."
			}
			fmt.Printf("%-28s %-10s %s\n", name, "REJECT", msg)
			continue
		}
		foot := "-"
		if lp.SanStats != nil {
			foot = fmt.Sprintf("%.2fx", lp.SanStats.Footprint())
		}
		fmt.Printf("%-28s %-10s %-8d %-8d %-8d %-10s\n",
			name, "ACCEPT", lp.Res.InsnProcessed, lp.Res.TotalStates, lp.Res.PeakStates, foot)
	}
	os.Exit(exitCode)
}

// buildProgram assembles the source and applies its header directives.
func buildProgram(src string) (*isa.Program, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	prog.Type = isa.ProgTypeSocketFilter
	prog.GPLCompatible = true
	for _, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, ";") {
			continue
		}
		directive := strings.TrimSpace(strings.TrimPrefix(line, ";"))
		switch {
		case strings.HasPrefix(directive, "prog_type:"):
			name := strings.TrimSpace(strings.TrimPrefix(directive, "prog_type:"))
			for _, t := range isa.AllProgramTypes {
				if t.String() == name {
					prog.Type = t
				}
			}
		case strings.HasPrefix(directive, "attach:"):
			prog.AttachTo = strings.TrimSpace(strings.TrimPrefix(directive, "attach:"))
		case directive == "nongpl":
			prog.GPLCompatible = false
		}
	}
	return prog, nil
}
