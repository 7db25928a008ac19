// Quickstart: open a small TPC-H engine, run one query under the three
// optimizer modes of the paper, and compare plans, Bloom filter counts and
// latencies.
package main

import (
	"fmt"
	"log"

	"bfcbo"
)

func main() {
	eng, err := bfcbo.Open(bfcbo.Config{ScaleFactor: 0.01, DOP: 8})
	if err != nil {
		log.Fatal(err)
	}

	// TPC-H Q12: orders joined with a heavily filtered lineitem.
	block, err := eng.TPCH(12)
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []bfcbo.Mode{bfcbo.NoBF, bfcbo.BFPost, bfcbo.BFCBO} {
		out, err := eng.Run(block, mode)
		if err != nil {
			log.Fatalf("%s: %v", mode, err)
		}
		fmt.Printf("=== %s\n", mode)
		fmt.Print(out.Explain())
		fmt.Printf("rows=%d  blooms=%d  planning=%s  exec=%s\n\n",
			out.Rows, out.Blooms, out.PlanningTime, out.ExecTime)
	}

	// The same engine accepts ad-hoc SQL.
	out, err := eng.RunSQL(`
		SELECT * FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey
		  AND l.l_orderkey = o.o_orderkey
		  AND c.c_mktsegment = 'BUILDING'
		  AND o.o_orderdate < DATE '1995-03-15'
		  AND l.l_shipdate > DATE '1995-03-15'`, bfcbo.BFCBO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ad-hoc Q3: rows=%d blooms=%d join order %s\n",
		out.Rows, out.Blooms, out.JoinOrder)
}
