// Command whydb is an interactive demonstrator: it generates one of the
// built-in data sets, runs a built-in query (or its failing variant), and
// prints the why-query explanation report — as terminal text by default, or
// as the service wire format with -json (the same internal/wire encoding
// whydbd serves, so a report printed here is byte-comparable with a report
// fetched from the daemon).
//
// The pack subcommand writes a dataset as a persistent binary snapshot that
// whydbd can boot from (-snapshot dir/) without regenerating it:
//
//	whydb pack -dataset ldbc -scale 1.0 -out snaps/        # writes snaps/ldbc.snap
//	whydb pack -from snaps/ldbc.snap -out repacked/        # load + repack (determinism check)
//
// Packing is deterministic: packing the same graph — or loading a snapshot
// and repacking it — yields byte-identical files with the same checksum.
//
// Usage:
//
//	whydb -dataset ldbc -query "LDBC QUERY 2" -fail -lower 1
//	whydb -dataset ldbc -query "LDBC QUERY 3" -lower 40 -upper 90
//	whydb -dataset dbpedia -query "DBPEDIA QUERY 1" -fail -json
//	whydb -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pack" {
		pack(os.Args[2:])
		return
	}
	dataset := flag.String("dataset", "ldbc", "data set: ldbc or dbpedia")
	name := flag.String("query", "LDBC QUERY 2", "built-in query name")
	fail := flag.Bool("fail", false, "use the query's failing (why-empty) variant")
	lower := flag.Int("lower", 1, "expected lower cardinality bound")
	upper := flag.Int("upper", 0, "expected upper cardinality bound (0 = none)")
	topo := flag.Bool("topology", false, "allow topology-changing rewritings")
	asJSON := flag.Bool("json", false, "emit the query and report in the whydbd wire format")
	list := flag.Bool("list", false, "list built-in queries and exit")
	flag.Parse()

	if *list {
		for _, nq := range workload.LDBCQueries() {
			fmt.Printf("ldbc    %-16s (C1=%d)\n", nq.Name, nq.C1)
		}
		for _, nq := range workload.DBpediaQueries() {
			fmt.Printf("dbpedia %s\n", nq.Name)
		}
		return
	}

	g, err := datagen.Generate(*dataset, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engine := core.NewEngine(g)
	var q *query.Query
	switch {
	case *dataset == "ldbc" && *fail:
		q, err = workload.FailingVariant(*name)
	case *dataset == "ldbc":
		q = buildNamed(workload.LDBCQueries(), *name)
	case *fail:
		q, err = workload.DBpediaFailingVariant(*name)
	default:
		q = buildNamed(workload.DBpediaQueries(), *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if q == nil {
		fmt.Fprintf(os.Stderr, "unknown query %q (try -list)\n", *name)
		os.Exit(2)
	}

	if !*asJSON {
		fmt.Println("query:")
		fmt.Println(q)
	}
	rep, err := engine.Explain(q, core.Options{
		Expected:      metrics.Interval{Lower: *lower, Upper: *upper},
		AllowTopology: *topo,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *asJSON {
		out := struct {
			Query  wire.Query  `json:"query"`
			Report wire.Report `json:"report"`
		}{Query: wire.FromQuery(q), Report: wire.FromReport(rep)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Println(rep.Summary())
	if len(rep.Rewritings) > 0 {
		fmt.Println("\nbest rewriting:")
		fmt.Println(rep.Rewritings[0].Query)
	}
}

func buildNamed(qs []workload.Named, name string) *query.Query {
	for _, nq := range qs {
		if nq.Name == name {
			return nq.Build()
		}
	}
	return nil
}

// pack implements `whydb pack`: generate (or reload) a dataset and write it
// as a snapshot file under -out. The dataset is built by datagen.Generate,
// as whydbd builds it, so a daemon booted from the snapshot serves
// byte-identical answers to one that generated the dataset itself.
func pack(args []string) {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	dataset := fs.String("dataset", "ldbc", "data set to pack: ldbc or dbpedia")
	scale := fs.Float64("scale", 1.0, "dataset size factor (matches whydbd -scale)")
	out := fs.String("out", "snaps", "output directory; the file is <out>/<name>.snap")
	from := fs.String("from", "", "repack an existing snapshot file instead of generating (determinism check)")
	mode := fs.String("mode", "auto", "load path for -from: auto, mmap, or read")
	quiet := fs.Bool("q", false, "suppress the manifest line")
	fs.Parse(args)

	var g *graph.Graph
	name := *dataset
	start := time.Now()
	if *from != "" {
		loadMode, ok := map[string]snapshot.Mode{"auto": snapshot.ModeAuto, "mmap": snapshot.ModeMmap, "read": snapshot.ModeRead}[*mode]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -mode %q (want auto, mmap, or read)\n", *mode)
			os.Exit(2)
		}
		loaded, err := snapshot.ReadFile(*from, loadMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *from, err)
			os.Exit(1)
		}
		defer loaded.Close()
		g = loaded.Graph
		name = strings.TrimSuffix(filepath.Base(*from), ".snap")
	} else {
		var err error
		if g, err = datagen.Generate(name, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := filepath.Join(*out, name+".snap")
	man, err := snapshot.WriteFile(path, g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "packing %s: %v\n", path, err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("packed %s: %d vertices, %d edges (%d live), %d edge types, %d bytes, checksum %08x (%.2fs)\n",
			path, man.Vertices, man.Edges, man.LiveEdges, man.EdgeTypes, man.Bytes, man.Checksum, time.Since(start).Seconds())
	}
}
