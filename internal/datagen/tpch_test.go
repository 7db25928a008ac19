package datagen

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bfcbo/internal/catalog"
)

func small(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateRowCounts(t *testing.T) {
	ds := small(t)
	want := map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": 50,
		"customer": 750,
		"part":     1000,
		"partsupp": 4000,
		"orders":   7500,
	}
	for name, w := range want {
		tb, err := ds.DB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.NumRows() != w {
			t.Errorf("%s rows = %d, want %d", name, tb.NumRows(), w)
		}
	}
	li, _ := ds.DB.Table("lineitem")
	// lineitem is 1..7 lines per order, expect ~4x orders.
	if n := li.NumRows(); n < 7500*2 || n > 7500*7 {
		t.Errorf("lineitem rows = %d, outside [15000, 52500]", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	at, _ := a.DB.Table("lineitem")
	bt, _ := b.DB.Table("lineitem")
	if at.NumRows() != bt.NumRows() {
		t.Fatalf("nondeterministic row count: %d vs %d", at.NumRows(), bt.NumRows())
	}
	ak := at.MustColumn("l_partkey").Ints
	bk := bt.MustColumn("l_partkey").Ints
	for i := range ak {
		if ak[i] != bk[i] {
			t.Fatalf("row %d differs: %d vs %d", i, ak[i], bk[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	b, _ := Generate(Config{ScaleFactor: 0.002, Seed: 2})
	at, _ := a.DB.Table("orders")
	bt, _ := b.DB.Table("orders")
	same := true
	ac, bc := at.MustColumn("o_custkey").Ints, bt.MustColumn("o_custkey").Ints
	for i := 0; i < len(ac) && i < len(bc); i++ {
		if ac[i] != bc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical o_custkey streams")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	ds := small(t)
	sup, _ := ds.DB.Table("supplier")
	nSup := int64(sup.NumRows())
	cust, _ := ds.DB.Table("customer")
	nCust := int64(cust.NumRows())
	part, _ := ds.DB.Table("part")
	nPart := int64(part.NumRows())
	ord, _ := ds.DB.Table("orders")
	nOrd := int64(ord.NumRows())

	for _, k := range ord.MustColumn("o_custkey").Ints {
		if k < 1 || k > nCust {
			t.Fatalf("o_custkey %d out of [1,%d]", k, nCust)
		}
	}
	li, _ := ds.DB.Table("lineitem")
	for i, k := range li.MustColumn("l_orderkey").Ints {
		if k < 1 || k > nOrd {
			t.Fatalf("l_orderkey %d out of range at row %d", k, i)
		}
	}
	for _, k := range li.MustColumn("l_partkey").Ints {
		if k < 1 || k > nPart {
			t.Fatalf("l_partkey %d out of [1,%d]", k, nPart)
		}
	}
	for _, k := range li.MustColumn("l_suppkey").Ints {
		if k < 1 || k > nSup {
			t.Fatalf("l_suppkey %d out of [1,%d]", k, nSup)
		}
	}
	for _, k := range sup.MustColumn("s_nationkey").Ints {
		if k < 0 || k > 24 {
			t.Fatalf("s_nationkey %d out of [0,24]", k)
		}
	}
}

// Every lineitem (partkey, suppkey) pair must exist in partsupp, because Q9
// and Q20 join lineitem to partsupp on both columns.
func TestLineitemSupplierConsistentWithPartsupp(t *testing.T) {
	ds := small(t)
	ps, _ := ds.DB.Table("partsupp")
	pairs := make(map[[2]int64]bool, ps.NumRows())
	pk := ps.MustColumn("ps_partkey").Ints
	sk := ps.MustColumn("ps_suppkey").Ints
	for i := range pk {
		pairs[[2]int64{pk[i], sk[i]}] = true
	}
	li, _ := ds.DB.Table("lineitem")
	lp := li.MustColumn("l_partkey").Ints
	ls := li.MustColumn("l_suppkey").Ints
	for i := range lp {
		if !pairs[[2]int64{lp[i], ls[i]}] {
			t.Fatalf("lineitem row %d (part %d, supp %d) not in partsupp", i, lp[i], ls[i])
		}
	}
}

// Every declared key, single-column or composite, is unique in the
// generated data, and every foreign key's values are a row of the key it
// references: the estimator prices joins on these declarations.
func TestDeclaredKeysHold(t *testing.T) {
	ds := small(t)
	tuples := func(table string, cols []string) []string {
		tb, err := ds.DB.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, tb.NumRows())
		for _, c := range cols {
			for i, v := range tb.MustColumn(c).Ints {
				out[i] += fmt.Sprintf("%d,", v)
			}
		}
		return out
	}
	keys := 0
	for _, name := range ds.Schema.TableNames() {
		meta := ds.Schema.MustTable(name)
		if key := meta.Key(); len(key) > 0 {
			seen := make(map[string]bool)
			for i, k := range tuples(name, key) {
				if seen[k] {
					t.Fatalf("%s row %d repeats key %v = (%s)", name, i, key, k)
				}
				seen[k] = true
			}
			keys++
		}
		for _, fk := range meta.ForeignKeys {
			ref := make(map[string]bool)
			for _, k := range tuples(fk.RefTable, fk.RefColumns()) {
				ref[k] = true
			}
			for i, k := range tuples(name, fk.Columns()) {
				if !ref[k] {
					t.Fatalf("%s row %d: %v = (%s) is not a key of %s", name, i, fk.Columns(), k, fk.RefTable)
				}
			}
		}
	}
	if keys != 7 {
		t.Fatalf("%d tables declare a primary key, want all but lineitem's 7", keys)
	}
	if key := ds.Schema.MustTable("partsupp").Key(); len(key) != 2 {
		t.Fatalf("partsupp key = %v, want (ps_partkey, ps_suppkey)", key)
	}
}

func TestDateOrderingInvariants(t *testing.T) {
	ds := small(t)
	li, _ := ds.DB.Table("lineitem")
	sd := li.MustColumn("l_shipdate").Ints
	rd := li.MustColumn("l_receiptdate").Ints
	for i := range sd {
		if rd[i] <= sd[i] {
			t.Fatalf("receiptdate %d <= shipdate %d at row %d", rd[i], sd[i], i)
		}
	}
	ord, _ := ds.DB.Table("orders")
	for _, d := range ord.MustColumn("o_orderdate").Ints {
		if d < MinOrderDate || d > MaxOrderDate {
			t.Fatalf("o_orderdate %d outside [%d,%d]", d, MinOrderDate, MaxOrderDate)
		}
	}
}

// Lineitem ship dates must be strictly after the parent order's date; this
// validates the parallel RNG-stream reconstruction in genLineitem.
func TestLineitemDatesAfterOrderDate(t *testing.T) {
	ds := small(t)
	ord, _ := ds.DB.Table("orders")
	odate := ord.MustColumn("o_orderdate").Ints
	li, _ := ds.DB.Table("lineitem")
	ok := li.MustColumn("l_orderkey").Ints
	sd := li.MustColumn("l_shipdate").Ints
	for i := range ok {
		if sd[i] <= odate[ok[i]-1] {
			t.Fatalf("lineitem %d shipdate %d not after order date %d", i, sd[i], odate[ok[i]-1])
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := small(t)
	li := ds.Schema.MustTable("lineitem")
	c, err := li.Column("l_partkey")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.NDV <= 0 || c.Stats.Max <= c.Stats.Min {
		t.Fatalf("l_partkey stats unpopulated: %+v", c.Stats)
	}
	ord := ds.Schema.MustTable("orders")
	if ord.PrimaryKey != "o_orderkey" {
		t.Fatalf("orders PK = %q", ord.PrimaryKey)
	}
	if i := slices.IndexFunc(li.ForeignKeys, func(fk catalog.ForeignKey) bool { return fk.Col == "l_orderkey" }); i < 0 || li.ForeignKeys[i].RefTable != "orders" {
		t.Fatalf("lineitem FK on l_orderkey missing: %+v", li.ForeignKeys)
	}
}

func TestValueDomains(t *testing.T) {
	ds := small(t)
	li, _ := ds.DB.Table("lineitem")
	modes, err := li.Dict("l_shipmode")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes.Values {
		found := false
		for _, want := range ShipModes {
			if m == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected ship mode %q", m)
		}
	}
	part, _ := ds.DB.Table("part")
	brands, err := part.Dict("p_brand")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range brands.Codes[:50] {
		if b := brands.Values[c]; !strings.HasPrefix(b, "Brand#") {
			t.Fatalf("bad brand %q", b)
		}
	}
	for _, s := range part.MustColumn("p_size").Ints {
		if s < 1 || s > 50 {
			t.Fatalf("p_size %d out of [1,50]", s)
		}
	}
}

// TestStringColumnsAreDictionaries checks every string column of every
// table: one code per row, strictly ascending distinct values, every code
// in range and every value used, and the catalog's NDV the dictionary's
// size.
func TestStringColumnsAreDictionaries(t *testing.T) {
	ds := small(t)
	checked := 0
	for _, name := range ds.DB.TableNames() {
		tb, _ := ds.DB.Table(name)
		meta := ds.Schema.MustTable(name)
		for _, c := range tb.Columns {
			if c.Kind != catalog.String {
				continue
			}
			checked++
			d := c.Dict
			if len(d.Codes) != tb.NumRows() {
				t.Errorf("%s.%s: %d codes for %d rows", name, c.Name, len(d.Codes), tb.NumRows())
			}
			for i := 1; i < len(d.Values); i++ {
				if d.Values[i-1] >= d.Values[i] {
					t.Errorf("%s.%s: values not strictly ascending at %d: %q, %q", name, c.Name, i, d.Values[i-1], d.Values[i])
				}
			}
			used := make([]bool, len(d.Values))
			for row, code := range d.Codes {
				if code < 0 || int(code) >= len(d.Values) {
					t.Fatalf("%s.%s: row %d code %d outside [0, %d)", name, c.Name, row, code, len(d.Values))
				}
				used[code] = true
			}
			for code, u := range used {
				if !u {
					t.Errorf("%s.%s: value %q is used by no row", name, c.Name, d.Values[code])
				}
			}
			mc, err := meta.Column(c.Name)
			if err != nil {
				t.Fatal(err)
			}
			if mc.Stats.NDV != float64(len(d.Values)) {
				t.Errorf("%s.%s: catalog NDV %v, dictionary holds %d values", name, c.Name, mc.Stats.NDV, len(d.Values))
			}
		}
	}
	if checked != 17 {
		t.Fatalf("checked %d string columns, want TPC-H's 17", checked)
	}
}

func TestInvalidScaleFactor(t *testing.T) {
	if _, err := Generate(Config{ScaleFactor: 0}); err == nil {
		t.Fatal("SF=0 should error")
	}
	if _, err := Generate(Config{ScaleFactor: -1}); err == nil {
		t.Fatal("SF<0 should error")
	}
}

func TestDescribeDataset(t *testing.T) {
	ds := small(t)
	s := DescribeDataset(ds)
	for _, name := range []string{"region", "nation", "lineitem", "orders"} {
		if !strings.Contains(s, name) {
			t.Fatalf("DescribeDataset missing %s:\n%s", name, s)
		}
	}
}

func TestDateEncoding(t *testing.T) {
	if Date(1970, 1, 1) != 0 {
		t.Fatalf("epoch day for 1970-01-01 = %d", Date(1970, 1, 1))
	}
	if Date(1970, 1, 2) != 1 {
		t.Fatalf("epoch day for 1970-01-02 = %d", Date(1970, 1, 2))
	}
	if Date(1995, 1, 1) >= Date(1996, 1, 1) {
		t.Fatal("date encoding not monotone")
	}
	if MaxOrderDate-MinOrderDate != Date(1998, 8, 2)-Date(1992, 1, 1) {
		t.Fatal("order date window wrong")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := newRNG(99)
	buckets := make([]int, 10)
	const n = 100_000
	for i := 0; i < n; i++ {
		buckets[r.intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d count %d deviates >2%% from uniform", i, b)
		}
	}
	if r.rangeInt(5, 5) != 5 {
		t.Fatal("degenerate rangeInt failed")
	}
	if r.intn(0) != 0 || r.intn(-1) != 0 {
		t.Fatal("intn with n<=0 should return 0")
	}
}
