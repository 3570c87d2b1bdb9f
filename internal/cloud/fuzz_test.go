package cloud

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to the catalog loader, seeded with the
// default catalog written by WriteJSON, its truncated halves and malformed
// documents. ReadJSON must never panic, must return exactly one of a catalog
// or an error, and a catalog it accepts must pass Validate and survive
// WriteJSON → ReadJSON unchanged, with a byte-identical second write.
//
// Run it with: go test -run '^$' -fuzz FuzzReadJSON -fuzztime 20s -fuzzminimizetime 5s ./internal/cloud/
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := DefaultCatalog().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	doc := buf.Bytes()
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Add(doc[len(doc)/2:])
	const minimal = `{"types":[{"Name":"a","ECU":1}],"regions":[{"Name":"r","PricePerHour":{"a":1}}],` +
		`"perf":{"seq_io":{"a":{"family":"gamma","k":2,"theta":3}},"rand_io":{"a":{"family":"normal","mu":5,"sigma":1}},` +
		`"net":{"a":{"family":"uniform","lo":1,"hi":2}},"cross_region_net":{"family":"constant","value":1}}}`
	for _, d := range []string{
		``,
		`null`,
		`{}`,
		`[]`,
		minimal,
		`{"types":[{"Name":"a","ECU":1}],"regions":[{"Name":"r","PricePerHour":{"a":1},"NetPricePerGB":{"zz":1}}]}`,
		`{"types":[{"Name":"a"}],"regions":[{"Name":"r","PricePerHour":{"a":1},"Spot":{"a":{"PricePerHourMean":-1}}}]}`,
		`{"types":[{"Name":"a"}],"regions":[{"Name":"r","PricePerHour":{"a":1},"Spot":{"a:spot":{"PricePerHourMean":1}}}]}`,
		`{"perf":{"seq_io":{"a":{"family":"normal","sigma":-1}}}}`,
		`{"perf":{"seq_io":{"a":{"family":"gamma","k":0}}}}`,
		`{"perf":{"cross_region_net":{"family":"uniform","lo":2,"hi":1}}}`,
		`{"types":[{"Name":"a","ECU":1e999}]}`,
		`{"types":[{"Name":"a"}],"zzz":1}`,
	} {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cat, err := ReadJSON(bytes.NewReader(doc))
		if (cat == nil) == (err == nil) {
			t.Fatalf("ReadJSON returned catalog %v and error %v; want exactly one", cat != nil, err)
		}
		if err != nil {
			return
		}
		if err := cat.Validate(); err != nil {
			t.Fatalf("accepted catalog fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := cat.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted catalog: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written catalog: %v\n%s", err, first.String())
		}
		if !reflect.DeepEqual(back, cat) {
			t.Fatalf("catalog changed across WriteJSON -> ReadJSON:\n%+v\nvs\n%+v", cat, back)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
