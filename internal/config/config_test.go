package config

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/topology"
)

const sample = `{
  "mode": "provider",
  "window_ms": 50,
  "num_redirectors": 2,
  "staleness_ms": 0,
  "principals": [
    {"name": "S", "capacity": 320},
    {"name": "A", "capacity": 0},
    {"name": "B", "capacity": 0}
  ],
  "agreements": [
    {"owner": "S", "user": "A", "lb": 0.2, "ub": 1.0},
    {"owner": "S", "user": "B", "lb": 0.8, "ub": 1.0}
  ],
  "provider": "S",
  "prices": {"A": 2, "B": 1},
  "l7": {
    "addr": "127.0.0.1:0",
    "orgs": {"alpha": "A", "beta": "B"},
    "backends": {"S": ["http://127.0.0.1:9000"]}
  }
}`

func TestParseAndBuild(t *testing.T) {
	f, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumPrincipals() != 3 {
		t.Fatalf("principals = %d", sys.NumPrincipals())
	}
	sp, _ := sys.Lookup("S")
	a, _ := sys.Lookup("A")
	lb, ub, ok := sys.AgreementBetween(sp, a)
	if !ok || lb != 0.2 || ub != 1.0 {
		t.Fatalf("agreement = %v %v %v", lb, ub, ok)
	}
	eng, err := f.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Window().Milliseconds() != 50 {
		t.Fatalf("window = %v", eng.Window())
	}
	if got := len(eng.Customers()); got != 2 {
		t.Fatalf("customers = %d", got)
	}
	backends, err := ResolvePrincipals(sys, f.L7.Backends)
	if err != nil {
		t.Fatal(err)
	}
	if len(backends[sp]) != 1 {
		t.Fatalf("backends = %v", backends)
	}
}

func TestLoadFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mode != "provider" || f.L7 == nil || f.L7.Orgs["alpha"] != "A" {
		t.Fatalf("loaded = %+v", f)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"mode": "weird", "principals": [{"name":"A"}]}`,
		`{"mode": "community", "principals": []}`,
		`{"mode": "provider", "principals": [{"name":"A"}]}`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	f, err := Parse([]byte(`{
	  "mode": "community",
	  "principals": [{"name": "A", "capacity": 10}],
	  "agreements": [{"owner": "A", "user": "ghost", "lb": 0.1, "ub": 0.5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildSystem(); err == nil {
		t.Fatal("unknown user accepted")
	}

	f2, err := Parse([]byte(`{
	  "mode": "provider", "provider": "ghost",
	  "principals": [{"name": "A", "capacity": 10}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.BuildEngine(); err == nil {
		t.Fatal("unknown provider accepted")
	}

	f3, err := Parse([]byte(`{
	  "mode": "provider", "provider": "A",
	  "principals": [{"name": "A", "capacity": 10}],
	  "prices": {"ghost": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.BuildEngine(); err == nil {
		t.Fatal("price for unknown principal accepted")
	}
}

func TestResolvePrincipalsUnknown(t *testing.T) {
	f, err := Parse([]byte(`{"mode":"community","principals":[{"name":"A","capacity":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResolvePrincipals(sys, map[string][]string{"ghost": {"x"}}); err == nil {
		t.Fatal("unknown principal resolved")
	}
}

// TestRetiredSpellingsRejected pins strict decoding: every camelCase
// spelling retired with the pre-/v1 aliases — like any other unknown key —
// fails Parse with an ErrConfig naming the key (instead of silently falling
// back to the field's default), and so does trailing data.
func TestRetiredSpellingsRejected(t *testing.T) {
	const base = `"mode": "community", "principals": [{"name": "A", "capacity": 10}]`
	cases := []struct{ key, doc string }{
		{"windowMS", `{` + base + `, "windowMS": 250}`},
		{"numRedirectors", `{` + base + `, "numRedirectors": 3}`},
		{"stalenessMS", `{` + base + `, "stalenessMS": 900}`},
		{"adminAddr", `{` + base + `, "adminAddr": "127.0.0.1:9100"}`},
		{"admissionShards", `{` + base + `, "admissionShards": 4}`},
		{"nodeId", `{` + base + `, "tree": {"nodeId": 4}}`},
		{"listenAddr", `{` + base + `, "tree": {"listenAddr": "127.0.0.1:0"}}`},
		{"failureTimeoutMS", `{` + base + `, "tree": {"failureTimeoutMS": 1500}}`},
		{"intervalMS", `{` + base + `, "health": {"intervalMS": 50}}`},
		{"timeoutMS", `{` + base + `, "health": {"timeoutMS": 20}}`},
		{"failThreshold", `{` + base + `, "health": {"failThreshold": 2}}`},
		{"successThreshold", `{` + base + `, "health": {"successThreshold": 3}}`},
		{"backoffMaxMS", `{` + base + `, "health": {"backoffMaxMS": 400}}`},
		{"rolloutLeadEpochs", `{` + base + `, "ctrl": {"rolloutLeadEpochs": 4}}`},
		{"window_ms_typo", `{` + base + `, "window_ms": 100, "window_ms_typo": 1}`},
		{"trailing data", `{` + base + `} {"mode": "provider"}`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc))
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: Parse error = %v, want ErrConfig naming the key", tc.key, err)
		}
	}
}

// jsonFence matches the ```json / ```jsonc blocks quoted in the docs, and
// lineComment the // annotations the jsonc ones carry.
var (
	jsonFence   = regexp.MustCompile("(?s)```jsonc?\n(.*?)```")
	lineComment = regexp.MustCompile(`(?m)\s+//.*$`)
)

// TestInTreeScenariosParse keeps strict decoding honest against everything
// the repository itself ships: the scenario files, and the configuration
// fragments quoted in README.md and OPERATIONS.md (spliced into a minimal
// scenario).
func TestInTreeScenariosParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	for _, path := range files {
		if _, err := Load(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	quoted := 0
	for _, doc := range []string{"../../README.md", "../../OPERATIONS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range jsonFence.FindAllSubmatch(text, -1) {
			fragment := lineComment.ReplaceAllString(string(m[1]), "")
			scenario := `{"mode": "community", "principals": [{"name": "A", "capacity": 1}], ` + fragment + `}`
			if _, err := Parse([]byte(scenario)); err != nil {
				t.Errorf("%s: quoted block no longer parses: %v\n%s", doc, err, fragment)
			}
			quoted++
		}
	}
	if quoted == 0 {
		t.Fatal("found no quoted JSON blocks in README.md / OPERATIONS.md")
	}
}

// treeFlat and treeHier are the same two-node deployment written in the
// flat tree form (explicit parent and children, no failure detection) and
// the declarative topology form.
const treeFlat = `{
  "mode": "community",
  "window_ms": 100,
  "num_redirectors": 2,
  "principals": [{"name": "A", "capacity": 10}],
  "tree": {
    "node_id": 0, "parent": -1, "children": [1],
    "peers": {"1": "127.0.0.1:7001"}, "listen_addr": "127.0.0.1:7000"
  }
}`

const treeHier = `{
  "mode": "community",
  "window_ms": 100,
  "num_redirectors": 2,
  "principals": [{"name": "A", "capacity": 10}],
  "tree": {
    "node_id": 0,
    "peers": {"1": "127.0.0.1:7001"}, "listen_addr": "127.0.0.1:7000",
    "topology": {
      "regions": [
        {"name": "east", "members": [0]},
        {"name": "west", "members": [1]}
      ],
      "fanout": 2,
      "sharding": "component",
      "delta_threshold": 0.5,
      "delta_resync_every": 8,
      "failure_timeout_ms": 1500
    }
  }
}`

// TestTreeConfigRoundTrip checks that both tree forms parse, survive a
// marshal/re-parse round trip, and that the topology form converts into
// a valid compiled plane.
func TestTreeConfigRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  string
	}{{"flat", treeFlat}, {"topology", treeHier}} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse([]byte(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			enc, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Parse(enc)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if !reflect.DeepEqual(f, g) {
				t.Fatalf("round trip changed the config:\n%+v\n%+v", f, g)
			}
		})
	}

	flat, err := Parse([]byte(treeFlat))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Tree.Topology != nil {
		t.Fatalf("flat form grew a topology: %+v", flat.Tree.Topology)
	}
	if flat.Tree.Parent != -1 || !reflect.DeepEqual(flat.Tree.Children, []int{1}) {
		t.Fatalf("flat keys not preserved: %+v", flat.Tree)
	}

	hier, err := Parse([]byte(treeHier))
	if err != nil {
		t.Fatal(err)
	}
	spec := hier.Tree.Topology.Spec()
	if spec == nil {
		t.Fatal("nil topology spec")
	}
	pl, err := topology.Compile(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.Members()); got != 2 {
		t.Fatalf("members = %d", got)
	}
	if spec.Sharding != topology.ShardComponent || spec.Delta.Threshold != 0.5 || spec.Delta.ResyncEvery != 8 {
		t.Fatalf("topology tuning lost: %+v", spec)
	}
	if hier.Tree.Topology.FailureTimeoutMS != 1500 {
		t.Fatalf("failure timeout lost: %+v", hier.Tree.Topology)
	}
}

// TestTopologySpecRejected checks that a malformed topology fails Parse
// instead of surfacing at node boot.
func TestTopologySpecRejected(t *testing.T) {
	_, err := Parse([]byte(`{
	  "mode": "community",
	  "principals": [{"name": "A", "capacity": 10}],
	  "tree": {"node_id": 0, "listen_addr": "127.0.0.1:0",
	           "topology": {"regions": [{"name": "east", "members": [0]},
	                                    {"name": "east", "members": [1]}]}}
	}`))
	if err == nil {
		t.Fatal("duplicate region name accepted")
	}
}

// TestFlatTreeKeysRejectedWithTopology pins the removal of the flat
// failure-detection keys: members, fanout and failure_timeout_ms directly
// under tree are unknown keys, refused by name both in the flat form and
// next to a topology block (where topology.fanout and
// topology.failure_timeout_ms are the spellings that remain), so a
// scenario written for the older form fails its boot instead of running
// without failure detection.
func TestFlatTreeKeysRejectedWithTopology(t *testing.T) {
	for _, tc := range []struct{ key, field string }{
		{"members", `"members": [0, 1]`},
		{"fanout", `"fanout": 3`},
		{"failure_timeout_ms", `"failure_timeout_ms": 2000`},
	} {
		t.Run(tc.key, func(t *testing.T) {
			for form, doc := range map[string]string{"flat": treeFlat, "topology": treeHier} {
				raw := strings.Replace(doc, `"node_id": 0,`, `"node_id": 0, `+tc.field+`,`, 1)
				_, err := Parse([]byte(raw))
				if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
					t.Fatalf("%s form: err = %v, want ErrConfig naming %q", form, err, tc.key)
				}
			}
		})
	}
	for _, doc := range []string{treeFlat, treeHier} {
		if _, err := Parse([]byte(doc)); err != nil {
			t.Fatalf("form without the removed keys rejected: %v", err)
		}
	}
}

// TestBudgetTreeConfig compiles a scenario-file budget forest into chained
// agreements alongside flat principals.
func TestBudgetTreeConfig(t *testing.T) {
	f, err := Parse([]byte(`{
	  "mode": "provider",
	  "provider": "org",
	  "principals": [{"name": "standalone", "capacity": 40}],
	  "budget": [{
	    "name": "org", "capacity": 120, "children": [
	      {"name": "team", "floor": 0.5, "children": [
	        {"name": "svc-a", "floor": 0.5},
	        {"name": "svc-b", "floor": 0.5}
	      ]},
	      {"name": "batch", "floor": 0.25}
	    ]
	  }]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumPrincipals() != 6 {
		t.Fatalf("principals = %d, want 6 (1 flat + 5 tree nodes)", sys.NumPrincipals())
	}
	org, ok := sys.Lookup("org")
	if !ok || sys.Capacity(org) != 120 {
		t.Fatalf("root not compiled: %v %v", ok, sys.Capacity(org))
	}
	team, _ := sys.Lookup("team")
	if lb, ub, ok := sys.AgreementBetween(org, team); !ok || lb != 0.5 || ub != 1 {
		t.Fatalf("org→team agreement = %v %v %v, want [0.5, 1]", lb, ub, ok)
	}
	// An invalid tree is rejected at Parse time, not BuildSystem time.
	if _, err := Parse([]byte(`{
	  "mode": "community",
	  "budget": [{"name": "org", "capacity": 10, "children": [
	    {"name": "a", "floor": 0.8}, {"name": "b", "floor": 0.8}]}]
	}`)); err == nil {
		t.Fatal("over-committed budget tree accepted")
	}
}
