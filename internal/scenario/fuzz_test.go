package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseScenario throws arbitrary bytes at the scenario parser. The
// parser must never panic, and any input it accepts must survive a
// serialize/re-parse round trip unchanged — the JSON form is the
// on-disk exchange format, so a lossy round trip would corrupt saved
// scenarios.
func FuzzParseScenario(f *testing.F) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Filer fault-injection corners the builtins do not cover.
	f.Add([]byte(`{"name":"x","filer":{"partitions":2,"replicas":3,"write_quorum":3,"slow_replica_factor":4,"object_tier":true},"phases":[{"name":"p","blocks":10,"events":[{"kind":"filer-crash","partition":1,"replica":2},{"kind":"filer-recover","partition":1,"replica":2}]}]}`))
	f.Add([]byte(`{"name":"bad","phases":[{"name":"p","blocks":1,"events":[{"kind":"crash","fraction":0.5,"partition":1}]}]}`))
	f.Add([]byte(`{"name":"neg","filer":{"replicas":-1},"phases":[{"name":"p","blocks":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			t.Fatalf("accepted scenario failed to serialize: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("serialized form of an accepted scenario was rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\nfirst  %+v\nsecond %+v", sc, back)
		}
	})
}
