// Command mpcbench regenerates every table and worked example of the paper
// (experiments.All, E1–E17 in index order) and prints each experiment's
// rows, paper-predicted values next to measured ones, one column per field
// of the experiment's row struct.
//
// Usage:
//
//	mpcbench [-quick] [-seed N] [-only E5]
//
// -quick shrinks input sizes (useful for smoke runs); -only runs a single
// experiment by id. It times nothing: wall-clock numbers come from
// `bash benchmark/run.sh` and `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"

	"mpcquery/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced input sizes")
	seed := flag.Int64("seed", 42, "base random seed")
	only := flag.String("only", "", "run a single experiment id (e.g. E5)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	matched := false
	for _, e := range experiments.All() {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		matched = true
		fmt.Printf("%s — %s (%s)\n", e.ID, e.Title, e.Ref)
		printRows(os.Stdout, e.Run(cfg))
		fmt.Println()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "mpcbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

// printRows writes a slice of structs as an aligned table: a header of
// field names, then one line per element.
func printRows(w io.Writer, rows any) {
	v := reflect.ValueOf(rows)
	typ := v.Type().Elem()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	cells := make([]string, typ.NumField())
	for i := range cells {
		cells[i] = typ.Field(i).Name
	}
	fmt.Fprintln(tw, strings.Join(cells, "\t"))
	for r := 0; r < v.Len(); r++ {
		for i := range cells {
			cells[i] = cell(v.Index(r).Field(i))
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
}

// cell formats one field: a float to four significant digits, a slice as
// a parenthesized tuple of its formatted elements.
func cell(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', 4, 64)
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = cell(v.Index(i))
		}
		return "(" + strings.Join(parts, ",") + ")"
	default:
		return fmt.Sprint(v.Interface())
	}
}
