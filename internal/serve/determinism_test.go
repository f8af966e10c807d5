package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/flashsim"
)

// samplePrefix is the exact framing of a sample envelope; the suffix is
// the closing brace. Extracting the data field by framing (not by
// re-parsing) is deliberate: it locks the wire bytes, not just the
// decoded values.
const samplePrefix = `{"type":"sample","data":`

// sampleData extracts the verbatim data objects of every sample line in
// a streamed NDJSON body.
func sampleData(t *testing.T, body []byte) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if !strings.HasPrefix(line, samplePrefix) {
			continue
		}
		if !strings.HasSuffix(line, "}") {
			t.Fatalf("malformed sample line %q", line)
		}
		out = append(out, strings.TrimSuffix(strings.TrimPrefix(line, samplePrefix), "}"))
	}
	return out
}

// TestStreamDeterministicAcrossShards locks the service's determinism
// contract: the streamed telemetry of the crash-recovery builtin is
// byte-identical whether the cluster runs on one shard or four, and
// matches the batch RunScenario NDJSON export exactly. A client recording
// the stream gets the same bytes as one exporting the result afterwards,
// on any machine, at any shard count.
func TestStreamDeterministicAcrossShards(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := func(shards int) string {
		return fmt.Sprintf(
			`{"config": {"hosts": 4, "persistent": true, "shards": %d}, "builtin": "crash-recovery"}`,
			shards)
	}

	var perShards [][]string
	for _, shards := range []int{1, 4} {
		id := createRun(t, ts, body(shards))
		status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
		if status != http.StatusOK {
			t.Fatalf("stream = %d: %s", status, b)
		}
		if !strings.Contains(string(b), `"state":"done"`) {
			t.Fatalf("shards=%d run did not finish: %s", shards, b)
		}
		perShards = append(perShards, sampleData(t, b))
	}
	if len(perShards[0]) == 0 {
		t.Fatal("no sample lines streamed")
	}
	if len(perShards[0]) != len(perShards[1]) {
		t.Fatalf("sample counts differ: shards=1 %d, shards=4 %d", len(perShards[0]), len(perShards[1]))
	}
	for i := range perShards[0] {
		if perShards[0][i] != perShards[1][i] {
			t.Fatalf("sample %d differs across shard counts:\nshards=1: %s\nshards=4: %s",
				i, perShards[0][i], perShards[1][i])
		}
	}

	spec, err := parseRunRequest([]byte(body(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flashsim.RunScenario(spec.Config, spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Telemetry.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	streamed := strings.Join(perShards[0], "\n") + "\n"
	if streamed != sb.String() {
		t.Errorf("streamed sample bytes != batch NDJSON export:\nstream: %.200s\nbatch:  %.200s",
			streamed, sb.String())
	}
}

// TestStreamPhaseEventLinesPinned locks the wire bytes of the phase and
// event stream lines of two builtins — crash-recovery's host crash and
// filer-crash's replica crash and re-sync — against the hash captured
// before those lines were marshaled from the result records directly.
func TestStreamPhaseEventLinesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	h := sha256.New()
	lines := 0
	for _, name := range []string{"crash-recovery", "filer-crash"} {
		id := createRun(t, ts, fmt.Sprintf(
			`{"config": {"hosts": 4, "persistent": true, "shards": 2}, "builtin": %q}`, name))
		status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
		if status != http.StatusOK || !strings.Contains(string(b), `"state":"done"`) {
			t.Fatalf("%s stream = %d: %s", name, status, b)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, `{"type":"phase",`) || strings.HasPrefix(line, `{"type":"event",`) {
				h.Write([]byte(line + "\n"))
				lines++
			}
		}
	}
	if lines != 8 {
		t.Errorf("%d phase and event lines, want 8", lines)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "b71d5c520bd1e8ca5dcc3e906aacb27265a9bd54e5979e76ae69614967b25fee"; got != want {
		t.Errorf("phase/event stream lines drifted:\ngot  %s\nwant %s", got, want)
	}
}
