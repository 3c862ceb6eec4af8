// Retail release: anonymize point-of-sale data (the paper's Lands End
// workload, §4.1) with a tuple-suppression threshold, and race the
// algorithms against each other on the same instance.
//
//	go run ./examples/retail [-rows 50000] [-k 10] [-qi 5] [-suppress 100]
//
// Retail data has very high-cardinality attributes (31,953 zipcodes, 1,509
// styles), which is where the suppression threshold matters: a handful of
// one-off outlier transactions would otherwise force every attribute to a
// much coarser domain.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	incognito "incognito"
	"incognito/internal/dataset"
)

func main() {
	rows := flag.Int("rows", 50000, "number of transactions to generate")
	k := flag.Int("k", 10, "anonymity parameter")
	qiSize := flag.Int("qi", 5, "quasi-identifier size (first N attributes of Fig. 9)")
	suppress := flag.Int("suppress", 100, "tuple-suppression threshold")
	flag.Parse()

	d := dataset.LandsEnd(*rows, 1)
	table := incognito.WrapTable(d.Table)
	qi := []incognito.QI{
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(5)},
		{Column: "Order Date", Hierarchy: incognito.Dates()},
		{Column: "Gender", Hierarchy: incognito.Suppression()},
		{Column: "Style", Hierarchy: incognito.Suppression()},
		{Column: "Price", Hierarchy: incognito.RoundDigits(4)},
		{Column: "Quantity", Hierarchy: incognito.Suppression()},
		{Column: "Cost", Hierarchy: incognito.RoundDigits(4)},
		{Column: "Shipment", Hierarchy: incognito.Suppression()},
	}
	if *qiSize < 1 || *qiSize > len(qi) {
		log.Fatalf("retail: -qi must be in [1, %d]", len(qi))
	}
	qi = qi[:*qiSize]

	fmt.Printf("anonymizing %d transactions, k=%d, QI size %d\n\n", *rows, *k, *qiSize)

	// The suppression threshold changes what is achievable: compare the
	// minimal heights with and without it.
	strict, err := incognito.Anonymize(table, qi, incognito.Config{K: *k, Algorithm: incognito.SuperRootsIncognito})
	if err != nil {
		log.Fatal(err)
	}
	relaxed, err := incognito.Anonymize(table, qi, incognito.Config{
		K: *k, MaxSuppressed: *suppress, Algorithm: incognito.SuperRootsIncognito,
	})
	if err != nil {
		log.Fatal(err)
	}
	report := func(label string, res *incognito.Result) {
		best, ok := res.Best(incognito.MinHeight())
		if !ok {
			fmt.Printf("%-32s no solution\n", label)
			return
		}
		fmt.Printf("%-32s %d solutions, minimal %s (height %d, %d tuples suppressed)\n",
			label, res.Len(), best, best.Height(), best.Suppressed())
	}
	report("no suppression:", strict)
	report(fmt.Sprintf("suppress up to %d tuples:", *suppress), relaxed)

	// Race the algorithms on the strict instance.
	fmt.Printf("\nalgorithm comparison (same instance):\n")
	for _, algo := range []incognito.Algorithm{
		incognito.BasicIncognito,
		incognito.SuperRootsIncognito,
		incognito.CubeIncognito,
		incognito.BinarySearch,
	} {
		start := time.Now()
		res, err := incognito.Anonymize(table, qi, incognito.Config{K: *k, Algorithm: algo})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("  %-24s %8v   %4d nodes checked, %3d table scans\n",
			algo.String(), time.Since(start).Round(time.Millisecond), st.NodesChecked, st.TableScans)
	}

	// Release the relaxed view.
	if best, ok := relaxed.Best(incognito.MinHeight()); ok {
		view, err := best.Apply()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreleased %d of %d rows under %s; first 3:\n", view.NumRows(), table.NumRows(), best)
		for r := 0; r < 3 && r < view.NumRows(); r++ {
			fmt.Printf("  %v\n", view.Row(r))
		}
	}
}
