package query

import (
	"fmt"
	"reflect"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/store"
)

// claimBackends returns the same small corpus in a directory-less store
// ("memory": heap rows only) and in a sealing store ("segments": two
// sealed segments plus an unsealed heap tail), so scans cross every
// residency boundary.
func claimBackends(t *testing.T) map[string]*store.Claims {
	t.Helper()
	rows := []model.Row{
		{Entity: "apple", Attribute: "red", Source: "s1"},
		{Entity: "apple", Attribute: "green", Source: "s2"},
		{Entity: "banana", Attribute: "yellow", Source: "s1"},
		{Entity: "cherry", Attribute: "red", Source: "s3"},
		{Entity: "date", Attribute: "brown", Source: "s2"},
		{Entity: "elder", Attribute: "black", Source: "s3"},
	}
	mem := store.New("")
	for _, r := range rows {
		mem.AddRow(r)
	}
	seg := store.New(t.TempDir())
	for i, r := range rows {
		seg.AddRow(r)
		if i == 1 || i == 3 { // seal after apple rows, then after cherry
			if _, err := seg.Seal(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return map[string]*store.Claims{"memory": mem, "segments": seg}
}

func TestScanClaims(t *testing.T) {
	row := func(e, a, s string) model.Row { return model.Row{Entity: e, Attribute: a, Source: s} }
	cases := []struct {
		name string
		opts ClaimsOptions
		want []model.Row
	}{
		{"all", ClaimsOptions{}, []model.Row{
			row("apple", "green", "s2"), row("apple", "red", "s1"),
			row("banana", "yellow", "s1"), row("cherry", "red", "s3"),
			row("date", "brown", "s2"), row("elder", "black", "s3"),
		}},
		{"entity", ClaimsOptions{Entity: "apple"}, []model.Row{
			row("apple", "green", "s2"), row("apple", "red", "s1"),
		}},
		{"entity_miss", ClaimsOptions{Entity: "kiwi"}, nil},
		{"prefix", ClaimsOptions{Prefix: "a"}, []model.Row{
			row("apple", "green", "s2"), row("apple", "red", "s1"),
		}},
		{"prefix_spanning", ClaimsOptions{Prefix: "b"}, []model.Row{
			row("banana", "yellow", "s1"),
		}},
		{"source", ClaimsOptions{Source: "s3"}, []model.Row{
			row("cherry", "red", "s3"), row("elder", "black", "s3"),
		}},
		{"entity_and_source", ClaimsOptions{Entity: "apple", Source: "s1"}, []model.Row{
			row("apple", "red", "s1"),
		}},
		{"prefix_and_source", ClaimsOptions{Prefix: "a", Source: "s2"}, []model.Row{
			row("apple", "green", "s2"),
		}},
		{"limit", ClaimsOptions{Limit: 2}, []model.Row{
			row("apple", "green", "s2"), row("apple", "red", "s1"),
		}},
	}
	for kind, be := range claimBackends(t) {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				got, err := ScanClaims(be.Reader(), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 && len(tc.want) == 0 {
					return
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			})
		}
	}
}

func TestScanClaimsRejectsBadOptions(t *testing.T) {
	rd := store.New("").Reader()
	if _, err := ScanClaims(rd, ClaimsOptions{Entity: "a", Prefix: "b"}); err == nil {
		t.Fatal("entity+prefix accepted")
	}
	if _, err := ScanClaims(rd, ClaimsOptions{Limit: -1}); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestPrefixUpper(t *testing.T) {
	for _, tc := range []struct{ prefix, want string }{
		{"a", "b"},
		{"ab", "ac"},
		{"a\xff", "b"},   // trailing 0xff: bump the byte before it
		{"\xff\xff", ""}, // all-0xff: unbounded above
	} {
		if got := PrefixUpper(tc.prefix); got != tc.want {
			t.Errorf("PrefixUpper(%q) = %q, want %q", tc.prefix, got, tc.want)
		}
	}
	// The bound is tight: every string with the prefix sorts below it.
	for _, s := range []string{"a", "a\xff\xff\xff", "azzz"} {
		if up := PrefixUpper("a"); !(s >= "a" && s < up) {
			t.Errorf("%q escapes [a, %q)", s, up)
		}
	}
}

var sinkRows []model.Row

func BenchmarkScanClaimsEntity(b *testing.B) {
	seg := store.New(b.TempDir())
	for i := 0; i < 50_000; i++ {
		seg.AddRow(model.Row{
			Entity:    fmt.Sprintf("e%05d", i%10_000),
			Attribute: fmt.Sprintf("a%d", i%7),
			Source:    fmt.Sprintf("s%d", i%31),
		})
		if i%10_000 == 9_999 {
			if _, err := seg.Seal(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	rd := seg.Reader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ScanClaims(rd, ClaimsOptions{Entity: "e00042"})
		if err != nil {
			b.Fatal(err)
		}
		sinkRows = rows
	}
}
