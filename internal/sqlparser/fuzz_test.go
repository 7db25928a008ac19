package sqlparser

import "testing"

// FuzzParse: on any input Parse returns an error or a block that passes
// its own validation — it never panics and never hands the optimizer a
// block Validate would reject.
func FuzzParse(f *testing.F) {
	seeds := []string{
		sqlSimpleJoin, sqlQ12, sqlBareColumns, sqlOrGroup, sqlNot, sqlNumeric, sqlAmbiguous,
		`select`,
		`SELECT * FROM part WHERE (p_size = 1`,
		`SELECT * FROM part WHERE p_size IN ()`,
		`SELECT a, b FROM t WHERE x <= 10 AND y <> 'it''s'`,
		`SELECT ;`,
	}
	for _, c := range likeCases {
		seeds = append(seeds, c.sql)
	}
	for _, sql := range append(seeds, badStatements...) {
		f.Add(sql)
	}
	s := schema(f).Schema
	f.Fuzz(func(t *testing.T, sql string) {
		b, err := Parse(s, sql)
		if err != nil {
			return
		}
		if b == nil {
			t.Fatalf("Parse(%q) returned neither a block nor an error", sql)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a block that fails validation: %v", sql, err)
		}
	})
}
