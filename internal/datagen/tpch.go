package datagen

import (
	"fmt"
	"strings"

	"bfcbo/internal/catalog"
	"bfcbo/internal/storage"
)

// Value domains from the TPC-H specification (4.2.2/4.2.3). The exact words
// matter for the analyzed queries' predicates (e.g. Q12 ship modes, Q16
// brand/type/size, Q19 containers, Q7 nations).
var (
	Regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	Nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	// nationRegion maps nation index to region index, per the spec's list.
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	Segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	Priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	ShipModes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	Instructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	TypeSyl1    = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	TypeSyl2    = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	TypeSyl3    = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	ContainSyl1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	ContainSyl2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	NameWords   = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
)

// Config parameterises generation.
type Config struct {
	// ScaleFactor scales row counts relative to TPC-H SF 1
	// (supplier 10k, customer 150k, part 200k, orders 1.5M, lineitem ~6M).
	ScaleFactor float64
	// Seed makes generation deterministic; the same (SF, Seed) always
	// produces the same database.
	Seed uint64
}

// Dataset bundles the generated data with its analyzed catalog.
type Dataset struct {
	DB     *storage.Database
	Schema *catalog.Schema
	Config Config
}

// rows scales a base SF-1 count, with a floor of 1.
func (c Config) rows(base float64) int {
	n := int(base * c.ScaleFactor)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the eight TPC-H tables at the configured scale factor,
// runs ANALYZE over them, and attaches the PK/FK constraints the paper's
// Heuristic 3 depends on ("foreign key constraints were added in compliance
// with TPC-H documentation", §4.1).
func Generate(cfg Config) (*Dataset, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("datagen: scale factor must be positive, got %v", cfg.ScaleFactor)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x7c15_2025
	}
	db := storage.NewDatabase()
	schema := catalog.NewSchema()

	gens := []struct {
		name string
		gen  func(Config) (*storage.Table, error)
	}{
		{"region", genRegion},
		{"nation", genNation},
		{"supplier", genSupplier},
		{"customer", genCustomer},
		{"part", genPart},
		{"partsupp", genPartsupp},
		{"orders", genOrders},
		{"lineitem", genLineitem},
	}
	for _, g := range gens {
		t, err := g.gen(cfg)
		if err != nil {
			return nil, fmt.Errorf("datagen: generating %s: %w", g.name, err)
		}
		if err := db.AddTable(t); err != nil {
			return nil, err
		}
		meta := storage.Analyze(t)
		addConstraints(meta)
		if err := schema.AddTable(meta); err != nil {
			return nil, err
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: generated schema invalid: %w", err)
	}
	return &Dataset{DB: db, Schema: schema, Config: cfg}, nil
}

// addConstraints attaches TPC-H primary and foreign keys to analyzed tables,
// composite ones included.
func addConstraints(t *catalog.Table) {
	switch t.Name {
	case "region":
		t.PrimaryKey = "r_regionkey"
	case "nation":
		t.PrimaryKey = "n_nationkey"
		t.ForeignKeys = []catalog.ForeignKey{{Col: "n_regionkey", RefTable: "region", RefCol: "r_regionkey"}}
	case "supplier":
		t.PrimaryKey = "s_suppkey"
		t.ForeignKeys = []catalog.ForeignKey{{Col: "s_nationkey", RefTable: "nation", RefCol: "n_nationkey"}}
	case "customer":
		t.PrimaryKey = "c_custkey"
		t.ForeignKeys = []catalog.ForeignKey{{Col: "c_nationkey", RefTable: "nation", RefCol: "n_nationkey"}}
	case "part":
		t.PrimaryKey = "p_partkey"
	case "partsupp":
		t.PrimaryKeyCols = []string{"ps_partkey", "ps_suppkey"}
		t.ForeignKeys = []catalog.ForeignKey{
			{Col: "ps_partkey", RefTable: "part", RefCol: "p_partkey"},
			{Col: "ps_suppkey", RefTable: "supplier", RefCol: "s_suppkey"},
		}
	case "orders":
		t.PrimaryKey = "o_orderkey"
		t.ForeignKeys = []catalog.ForeignKey{{Col: "o_custkey", RefTable: "customer", RefCol: "c_custkey"}}
	case "lineitem":
		t.ForeignKeys = []catalog.ForeignKey{
			{Col: "l_orderkey", RefTable: "orders", RefCol: "o_orderkey"},
			{Col: "l_partkey", RefTable: "part", RefCol: "p_partkey"},
			{Col: "l_suppkey", RefTable: "supplier", RefCol: "s_suppkey"},
			{Cols: []string{"l_partkey", "l_suppkey"}, RefTable: "partsupp", RefCols: []string{"ps_partkey", "ps_suppkey"}},
		}
	}
}

func genRegion(cfg Config) (*storage.Table, error) {
	n := len(Regions)
	keys := make([]int64, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		names[i] = Regions[i]
	}
	return storage.NewTable("region", []storage.Column{
		{Name: "r_regionkey", Kind: catalog.Int64, Ints: keys},
		storage.StringColumn("r_name", names),
	})
}

func genNation(cfg Config) (*storage.Table, error) {
	n := len(Nations)
	keys := make([]int64, n)
	names := make([]string, n)
	regions := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		names[i] = Nations[i]
		regions[i] = nationRegion[i]
	}
	return storage.NewTable("nation", []storage.Column{
		{Name: "n_nationkey", Kind: catalog.Int64, Ints: keys},
		storage.StringColumn("n_name", names),
		{Name: "n_regionkey", Kind: catalog.Int64, Ints: regions},
	})
}

func genSupplier(cfg Config) (*storage.Table, error) {
	n := cfg.rows(10_000)
	r := newRNG(cfg.Seed ^ 0x5)
	keys := make([]int64, n)
	names := make([]string, n)
	nations := make([]int64, n)
	acctbal := make([]float64, n)
	comments := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		names[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nations[i] = r.intn(int64(len(Nations)))
		acctbal[i] = r.rangeFloat(-999.99, 9999.99)
		// Per spec 4.2.3: 5 suppliers per 10,000 get "Customer ...
		// Complaints" embedded; another 5 get "Customer ... Recommends".
		switch {
		case r.intn(2000) == 0:
			comments[i] = "wake quickly Customer slow Complaints about deliveries"
		case r.intn(2000) == 0:
			comments[i] = "blithely bold Customer warmly Recommends the packages"
		default:
			comments[i] = pick(r, NameWords) + " deposits sleep furiously " + pick(r, NameWords)
		}
	}
	return storage.NewTable("supplier", []storage.Column{
		{Name: "s_suppkey", Kind: catalog.Int64, Ints: keys},
		storage.StringColumn("s_name", names),
		{Name: "s_nationkey", Kind: catalog.Int64, Ints: nations},
		{Name: "s_acctbal", Kind: catalog.Float64, Floats: acctbal},
		storage.StringColumn("s_comment", comments),
	})
}

func genCustomer(cfg Config) (*storage.Table, error) {
	n := cfg.rows(150_000)
	r := newRNG(cfg.Seed ^ 0xC)
	keys := make([]int64, n)
	names := make([]string, n)
	nations := make([]int64, n)
	acctbal := make([]float64, n)
	segments := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		names[i] = fmt.Sprintf("Customer#%09d", i+1)
		nations[i] = r.intn(int64(len(Nations)))
		acctbal[i] = r.rangeFloat(-999.99, 9999.99)
		segments[i] = pick(r, Segments)
	}
	return storage.NewTable("customer", []storage.Column{
		{Name: "c_custkey", Kind: catalog.Int64, Ints: keys},
		storage.StringColumn("c_name", names),
		{Name: "c_nationkey", Kind: catalog.Int64, Ints: nations},
		{Name: "c_acctbal", Kind: catalog.Float64, Floats: acctbal},
		storage.StringColumn("c_mktsegment", segments),
	})
}

func genPart(cfg Config) (*storage.Table, error) {
	n := cfg.rows(200_000)
	r := newRNG(cfg.Seed ^ 0x9)
	keys := make([]int64, n)
	names := make([]string, n)
	mfgrs := make([]string, n)
	brands := make([]string, n)
	types := make([]string, n)
	sizes := make([]int64, n)
	containers := make([]string, n)
	retail := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		names[i] = pick(r, NameWords) + " " + pick(r, NameWords) + " " + pick(r, NameWords)
		m := r.rangeInt(1, 5)
		b := r.rangeInt(1, 5)
		mfgrs[i] = fmt.Sprintf("Manufacturer#%d", m)
		brands[i] = fmt.Sprintf("Brand#%d%d", m, b)
		types[i] = pick(r, TypeSyl1) + " " + pick(r, TypeSyl2) + " " + pick(r, TypeSyl3)
		sizes[i] = r.rangeInt(1, 50)
		containers[i] = pick(r, ContainSyl1) + " " + pick(r, ContainSyl2)
		retail[i] = 900 + float64(i%1000) + r.rangeFloat(0, 100)
	}
	return storage.NewTable("part", []storage.Column{
		{Name: "p_partkey", Kind: catalog.Int64, Ints: keys},
		storage.StringColumn("p_name", names),
		storage.StringColumn("p_mfgr", mfgrs),
		storage.StringColumn("p_brand", brands),
		storage.StringColumn("p_type", types),
		{Name: "p_size", Kind: catalog.Int64, Ints: sizes},
		storage.StringColumn("p_container", containers),
		{Name: "p_retailprice", Kind: catalog.Float64, Floats: retail},
	})
}

func genPartsupp(cfg Config) (*storage.Table, error) {
	parts := cfg.rows(200_000)
	sups := cfg.rows(10_000)
	r := newRNG(cfg.Seed ^ 0x50)
	n := parts * 4
	pkeys := make([]int64, 0, n)
	skeys := make([]int64, 0, n)
	avail := make([]int64, 0, n)
	cost := make([]float64, 0, n)
	for p := 1; p <= parts; p++ {
		for j := 0; j < 4; j++ {
			// Spread a part's four suppliers across the key space, as the
			// spec's formula does, so part->supplier joins fan out.
			s := (int64(p) + int64(j)*(int64(sups)/4+1)) % int64(sups)
			pkeys = append(pkeys, int64(p))
			skeys = append(skeys, s+1)
			avail = append(avail, r.rangeInt(1, 9999))
			cost = append(cost, r.rangeFloat(1, 1000))
		}
	}
	return storage.NewTable("partsupp", []storage.Column{
		{Name: "ps_partkey", Kind: catalog.Int64, Ints: pkeys},
		{Name: "ps_suppkey", Kind: catalog.Int64, Ints: skeys},
		{Name: "ps_availqty", Kind: catalog.Int64, Ints: avail},
		{Name: "ps_supplycost", Kind: catalog.Float64, Floats: cost},
	})
}

func genOrders(cfg Config) (*storage.Table, error) {
	n := cfg.rows(1_500_000)
	customers := cfg.rows(150_000)
	r := newRNG(cfg.Seed ^ 0x0D)
	keys := make([]int64, n)
	custs := make([]int64, n)
	status := make([]string, n)
	dates := make([]int64, n)
	prios := make([]string, n)
	totals := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		custs[i] = r.rangeInt(1, int64(customers))
		dates[i] = r.rangeInt(MinOrderDate, MaxOrderDate)
		prios[i] = pick(r, Priorities)
		totals[i] = r.rangeFloat(850, 550_000)
		switch r.intn(4) {
		case 0:
			status[i] = "F"
		case 1:
			status[i] = "O"
		default:
			status[i] = "P"
		}
	}
	return storage.NewTable("orders", []storage.Column{
		{Name: "o_orderkey", Kind: catalog.Int64, Ints: keys},
		{Name: "o_custkey", Kind: catalog.Int64, Ints: custs},
		storage.StringColumn("o_orderstatus", status),
		{Name: "o_orderdate", Kind: catalog.Int64, Ints: dates},
		storage.StringColumn("o_orderpriority", prios),
		{Name: "o_totalprice", Kind: catalog.Float64, Floats: totals},
	})
}

func genLineitem(cfg Config) (*storage.Table, error) {
	orders := cfg.rows(1_500_000)
	parts := cfg.rows(200_000)
	sups := cfg.rows(10_000)
	r := newRNG(cfg.Seed ^ 0x11)
	// Regenerate order dates with the same stream as genOrders so the
	// derived line-item dates are consistent with their parent order.
	ro := newRNG(cfg.Seed ^ 0x0D)
	orderDates := make([]int64, orders)
	customers := cfg.rows(150_000)
	for i := 0; i < orders; i++ {
		_ = ro.rangeInt(1, int64(customers)) // custkey draw
		orderDates[i] = ro.rangeInt(MinOrderDate, MaxOrderDate)
		_ = pick(ro, Priorities)
		_ = ro.rangeFloat(850, 550_000)
		_ = ro.intn(4)
	}

	est := orders * 4
	okeys := make([]int64, 0, est)
	pkeys := make([]int64, 0, est)
	skeys := make([]int64, 0, est)
	linenums := make([]int64, 0, est)
	qty := make([]float64, 0, est)
	price := make([]float64, 0, est)
	disc := make([]float64, 0, est)
	tax := make([]float64, 0, est)
	retflag := make([]string, 0, est)
	linestatus := make([]string, 0, est)
	shipdate := make([]int64, 0, est)
	commitdate := make([]int64, 0, est)
	receiptdate := make([]int64, 0, est)
	shipmode := make([]string, 0, est)
	shipinstr := make([]string, 0, est)

	today := Date(1995, 6, 17) // CURRENTDATE per spec for returnflag logic
	for o := 1; o <= orders; o++ {
		lines := int(r.rangeInt(1, 7))
		for l := 1; l <= lines; l++ {
			pk := r.rangeInt(1, int64(parts))
			// The supplier must be one of the part's four partsupp rows.
			j := r.intn(4)
			sk := (pk+j*(int64(sups)/4+1))%int64(sups) + 1
			sd := orderDates[o-1] + r.rangeInt(1, 121)
			cd := orderDates[o-1] + r.rangeInt(30, 90)
			rd := sd + r.rangeInt(1, 30)
			okeys = append(okeys, int64(o))
			pkeys = append(pkeys, pk)
			skeys = append(skeys, sk)
			linenums = append(linenums, int64(l))
			qty = append(qty, float64(r.rangeInt(1, 50)))
			price = append(price, r.rangeFloat(900, 105_000))
			disc = append(disc, float64(r.rangeInt(0, 10))/100)
			tax = append(tax, float64(r.rangeInt(0, 8))/100)
			if rd <= today {
				if r.intn(2) == 0 {
					retflag = append(retflag, "R")
				} else {
					retflag = append(retflag, "A")
				}
			} else {
				retflag = append(retflag, "N")
			}
			if sd > today {
				linestatus = append(linestatus, "O")
			} else {
				linestatus = append(linestatus, "F")
			}
			shipdate = append(shipdate, sd)
			commitdate = append(commitdate, cd)
			receiptdate = append(receiptdate, rd)
			shipmode = append(shipmode, pick(r, ShipModes))
			shipinstr = append(shipinstr, pick(r, Instructs))
		}
	}
	return storage.NewTable("lineitem", []storage.Column{
		{Name: "l_orderkey", Kind: catalog.Int64, Ints: okeys},
		{Name: "l_partkey", Kind: catalog.Int64, Ints: pkeys},
		{Name: "l_suppkey", Kind: catalog.Int64, Ints: skeys},
		{Name: "l_linenumber", Kind: catalog.Int64, Ints: linenums},
		{Name: "l_quantity", Kind: catalog.Float64, Floats: qty},
		{Name: "l_extendedprice", Kind: catalog.Float64, Floats: price},
		{Name: "l_discount", Kind: catalog.Float64, Floats: disc},
		{Name: "l_tax", Kind: catalog.Float64, Floats: tax},
		storage.StringColumn("l_returnflag", retflag),
		storage.StringColumn("l_linestatus", linestatus),
		{Name: "l_shipdate", Kind: catalog.Int64, Ints: shipdate},
		{Name: "l_commitdate", Kind: catalog.Int64, Ints: commitdate},
		{Name: "l_receiptdate", Kind: catalog.Int64, Ints: receiptdate},
		storage.StringColumn("l_shipmode", shipmode),
		storage.StringColumn("l_shipinstruct", shipinstr),
	})
}

// DescribeDataset returns a human-readable summary (used by cmd/tpchgen).
func DescribeDataset(ds *Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPC-H dataset  SF=%g  seed=%#x\n", ds.Config.ScaleFactor, ds.Config.Seed)
	for _, name := range ds.DB.TableNames() {
		t, _ := ds.DB.Table(name)
		meta := ds.Schema.MustTable(name)
		fmt.Fprintf(&b, "  %-9s %10d rows  %2d cols  pk=%s\n", name, t.NumRows(), len(t.Columns), orDash(strings.Join(meta.Key(), ",")))
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
