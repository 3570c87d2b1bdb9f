// Command decobench regenerates the tables and figures of the paper's
// evaluation section (§6). Each experiment prints the same rows/series the
// paper reports.
//
// Usage:
//
//	decobench -exp all                # quick scale
//	decobench -exp fig8 -full        # paper scale (slow)
//	decobench -exp table2,fig6,fig7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deco/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "comma-separated experiments: fig1,fig2,fig6,fig7,table2,fig8,fig9,fig10,fig11,speedup,overhead,ablation,all")
	full := flag.Bool("full", false, "paper-scale parameters (100 runs, Montage-1/4/8); much slower")
	seed := flag.Int64("seed", 1, "rng seed")
	flag.Parse()

	cfg := exp.QuickConfig()
	if *full {
		cfg = exp.FullConfig()
	}
	cfg.Seed = *seed
	env, err := exp.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decobench:", err)
		os.Exit(1)
	}

	runners := map[string]func(io.Writer) error{
		"fig1":     func(w io.Writer) error { _, err := env.Fig1(w); return err },
		"fig2":     func(w io.Writer) error { _, err := env.Fig2(w); return err },
		"fig6":     func(w io.Writer) error { _, err := env.Fig6(w); return err },
		"fig7":     func(w io.Writer) error { _, err := env.Fig7(w); return err },
		"table2":   func(w io.Writer) error { _, err := env.Table2(w); return err },
		"fig8":     func(w io.Writer) error { _, err := env.Fig8(w); return err },
		"fig9":     func(w io.Writer) error { _, err := env.Fig9(w); return err },
		"fig10":    func(w io.Writer) error { _, err := env.Fig10(w); return err },
		"fig11":    func(w io.Writer) error { _, err := env.Fig11(w); return err },
		"speedup":  func(w io.Writer) error { _, err := env.Speedup(w, exp.SpeedupRounds); return err },
		"overhead": func(w io.Writer) error { _, err := env.Overhead(w); return err },
		"ablation": func(w io.Writer) error { _, err := env.Ablation(w); return err },
	}
	order := []string{"table2", "fig6", "fig7", "fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "speedup", "overhead", "ablation"}

	var selected []string
	if *which == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*which, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "decobench: unknown experiment %q\n", name)
				os.Exit(1)
			}
			selected = append(selected, name)
		}
	}
	for i, name := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s ===\n", name)
		if err := runners[name](os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "decobench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
