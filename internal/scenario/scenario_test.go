package scenario

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario/scenariotest"
)

func validScenario() *Scenario {
	return &Scenario{
		Name: "test",
		Phases: []Phase{
			{Name: "a", Blocks: 100},
			{Name: "b", Seconds: 1.5, WriteFraction: ptr(0.5),
				Events: []Event{{Kind: EventFlush, Host: 0, Fraction: 0.25}}},
		},
	}
}

func TestValidateNormalizesDefaults(t *testing.T) {
	s := &Scenario{
		Name: "n",
		Phases: []Phase{
			{Name: "p", Blocks: 1, Events: []Event{{Kind: EventFlush, Host: 0}}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.SampleEveryMillis != defaultSampleMillis {
		t.Errorf("sampling period %v, want default %v", s.SampleEveryMillis, defaultSampleMillis)
	}
	if s.Phases[0].Events[0].Fraction != 1 {
		t.Errorf("flush fraction %v, want normalized 1", s.Phases[0].Events[0].Fraction)
	}
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"no phases", func(s *Scenario) { s.Phases = nil }, "no phases"},
		{"no duration", func(s *Scenario) { s.Phases[0].Blocks = 0 }, "needs a duration"},
		{"two durations", func(s *Scenario) { s.Phases[0].Seconds = 1 }, "multiple durations"},
		{"negative blocks", func(s *Scenario) { s.Phases[0].Blocks = -5 }, "negative duration"},
		{"bad write frac", func(s *Scenario) { s.Phases[1].WriteFraction = ptr(1.5) }, "write fraction"},
		{"nan write frac", func(s *Scenario) { s.Phases[1].WriteFraction = ptr(math.NaN()) }, "write fraction"},
		{"bad ws frac", func(s *Scenario) { s.Phases[1].WorkingSetFraction = ptr(-0.1) }, "working set fraction"},
		{"bad threads", func(s *Scenario) { s.Phases[1].ActiveThreads = ptr(0) }, "active threads"},
		{"bad shift", func(s *Scenario) { s.Phases[0].ShiftFraction = 2 }, "shift fraction"},
		{"bad event kind", func(s *Scenario) { s.Phases[1].Events[0].Kind = "reboot" }, "unknown event kind"},
		{"bad flush frac", func(s *Scenario) { s.Phases[1].Events[0].Fraction = math.NaN() }, "flush fraction"},
		{"crash with frac", func(s *Scenario) {
			s.Phases[1].Events[0] = Event{Kind: EventCrash, Fraction: 0.5}
		}, "takes no fraction"},
		{"negative host", func(s *Scenario) { s.Phases[1].Events[0].Host = -1 }, "host"},
		{"bad sample", func(s *Scenario) { s.SampleEveryMillis = -1 }, "sampling period"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := validScenario()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validScenario()
	s.SampleEveryMillis = 20
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, back)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","phases":[{"name":"p","blocks":1,"typo_field":3}]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestParseErrorPaths locks the JSON-level failure modes an operator's
// hand-written scenario file can hit. The corpus lives in scenariotest so
// the HTTP daemon's request-decoder tests exercise the same documents;
// every case must fail loudly with a message that names the problem.
func TestParseErrorPaths(t *testing.T) {
	for _, tc := range scenariotest.ParseErrorCases {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := Parse([]byte(tc.JSON))
			if err == nil {
				t.Fatalf("invalid scenario accepted: %s", tc.JSON)
			}
			if !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("err = %v, want containing %q", err, tc.Want)
			}
		})
	}
}

// TestCheckLive covers the admission check for events injected into a
// running cluster: scenario-level validation plus layout bounds.
func TestCheckLive(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   Event
		want string // error substring; "" means admitted
	}{
		{"crash in range", Event{Kind: EventCrash, Host: 3}, ""},
		{"flush normalizes", Event{Kind: EventFlush, Host: 0}, ""},
		{"leave multi-host", Event{Kind: EventLeave, Host: 1}, ""},
		{"filer crash in range", Event{Kind: EventFilerCrash, Partition: 1, Replica: 1}, ""},
		{"unknown kind", Event{Kind: "reboot"}, "unknown event kind"},
		{"crash with fraction", Event{Kind: EventCrash, Fraction: 0.5}, "takes no fraction"},
		{"host out of range", Event{Kind: EventCrash, Host: 4}, "out of range (run has 4)"},
		{"partition out of range", Event{Kind: EventFilerCrash, Partition: 2}, "partition 2 out of range"},
		{"replica out of range", Event{Kind: EventFilerRecover, Replica: 2}, "replica 2 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := tc.ev
			err := CheckLive(&ev, 4, 2, 2)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if ev.Kind == EventFlush && ev.Fraction != 1 {
					t.Fatalf("flush fraction %v not normalized to 1", ev.Fraction)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	if err := CheckLive(&Event{Kind: EventJoin, Host: 0}, 1, 1, 1); err == nil {
		t.Fatal("join admitted on a single-host run")
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.json"
	data, err := json.MarshalIndent(validScenario(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test" || len(s.Phases) != 2 {
		t.Fatalf("loaded %+v", s)
	}
	if _, err := Load(dir + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBuiltinsValidateAndAreFresh(t *testing.T) {
	names := BuiltinNames()
	want := []string{"burst", "churn", "crash-recovery", "filer-crash", "warmup", "ws-shift"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("builtins = %v, want %v", names, want)
	}
	for _, name := range names {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
		// Fresh copies: mutating one must not leak into the next.
		s.Phases[0].Name = "mutated"
		s2, _ := Builtin(name)
		if s2.Phases[0].Name == "mutated" {
			t.Errorf("builtin %s shares state across calls", name)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestChurnAndMaxHost checks the churn builtin's events against host
// counts: its highest target is host 1, so it needs two hosts, and its
// leave/join churn needs a multi-host run anyway.
func TestChurnAndMaxHost(t *testing.T) {
	churn, _ := Builtin("churn")
	check := func(hosts int) error {
		for _, p := range churn.Phases {
			for _, e := range p.Events {
				if err := CheckLive(&e, hosts, 1, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := check(2); err != nil {
		t.Errorf("churn rejected on 2 hosts: %v", err)
	}
	if err := check(1); err == nil || !strings.Contains(err.Error(), "host 1 out of range") {
		t.Errorf("churn on 1 host: err = %v, want host 1 out of range", err)
	}
}

func TestClone(t *testing.T) {
	s := validScenario()
	c := s.Clone()
	*c.Phases[1].WriteFraction = 0.99
	c.Phases[1].Events[0].Fraction = 0.75
	if *s.Phases[1].WriteFraction != 0.5 || s.Phases[1].Events[0].Fraction != 0.25 {
		t.Fatal("clone shares storage with the original")
	}
}

func TestFilerSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *FilerSpec
		want string // error substring; "" means accepted
	}{
		{"nil spec", nil, ""},
		{"partitions only", &FilerSpec{Partitions: 4}, ""},
		{"object tier", &FilerSpec{ObjectTier: true, ObjectReadMicros: 40000}, ""},
		{"negative partitions", &FilerSpec{Partitions: -1}, "partitions"},
		{"nan read latency", &FilerSpec{ObjectTier: true, ObjectReadMicros: math.NaN()}, "latency"},
		{"inf write latency", &FilerSpec{ObjectTier: true, ObjectWriteMicros: math.Inf(1)}, "latency"},
		{"negative latency", &FilerSpec{ObjectTier: true, ObjectReadMicros: -1}, "latency"},
		{"latency without tier", &FilerSpec{ObjectReadMicros: 100}, "without object_tier"},
		{"policy without tier", &FilerSpec{WriteThrough: ptr(true)}, "without object_tier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := validScenario()
			s.Filer = tc.f
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestFilerSpecNormalization locks the write-through / read-promote
// defaulting: absent policy fields become true when the object tier is on.
func TestFilerSpecNormalization(t *testing.T) {
	s := validScenario()
	f := false
	s.Filer = &FilerSpec{ObjectTier: true, ReadPromote: &f}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Filer.WriteThrough == nil || !*s.Filer.WriteThrough {
		t.Error("absent write_through not normalized to true")
	}
	if s.Filer.ReadPromote == nil || *s.Filer.ReadPromote {
		t.Error("explicit read_promote=false overwritten")
	}
}

// TestFilerSpecJSON locks the wire format of the filer block and its
// deep-copy behavior under Clone.
func TestFilerSpecJSON(t *testing.T) {
	src := `{"name":"x","filer":{"partitions":4,"object_tier":true,` +
		`"object_read_us":40000,"write_through":false},` +
		`"phases":[{"name":"p","blocks":1}]}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Filer
	if f == nil || f.Partitions != 4 || !f.ObjectTier || f.ObjectReadMicros != 40000 {
		t.Fatalf("parsed filer spec %+v", f)
	}
	if f.WriteThrough == nil || *f.WriteThrough {
		t.Error("explicit write_through=false lost in parsing")
	}
	if f.ReadPromote == nil || !*f.ReadPromote {
		t.Error("absent read_promote not normalized to true")
	}

	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, back)
	}

	c := s.Clone()
	*c.Filer.WriteThrough = true
	c.Filer.Partitions = 9
	if *s.Filer.WriteThrough || s.Filer.Partitions != 4 {
		t.Fatal("clone shares filer storage with the original")
	}

	if _, err := Parse([]byte(`{"name":"x","filer":{"shards":2},"phases":[{"name":"p","blocks":1}]}`)); err == nil {
		t.Fatal("unknown filer field accepted")
	}
}
