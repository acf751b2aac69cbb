package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from the current output")

// digestManifest pins the bytes of every artifact against a checked-in
// baseline. Rewriting it with -update is a claim that the moved artifacts
// moved on purpose; CHANGES.md must say which moved and why.
const digestManifest = "testdata/digests.txt"

// digestScaleRequests keeps the seven -scale runs CI-sized while still
// reaching every substrate's steady state.
const digestScaleRequests = 20_000

// TestArtifactDigests renders each of the 22 artifact ids alone, with one
// worker and a cold run cache, plus each -scale substrate's ScaleResult,
// and compares their sha256s with the manifest. It also pins the number of
// simulations a full cold render executes, so a refactor cannot quietly
// add or drop runs. Every moved entry is named.
func TestArtifactDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-add into one rounding on arm64, ppc64le and
		// s390x, so float results, and the rendered digits, differ there.
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-add and move float bits", runtime.GOARCH)
	}
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	defer experiments.ResetRunCache()

	got := map[string]string{}
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	for _, id := range order {
		experiments.ResetRunCache()
		out, err := renderArtifacts([]string{id})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = sum(out)
	}
	experiments.ResetRunCache()
	if _, err := renderArtifacts(order); err != nil {
		t.Fatalf("full render: %v", err)
	}
	executed, _ := experiments.RunCacheStats()
	got["simulations"] = fmt.Sprint(executed)
	for _, substrate := range experiments.ScaleSubstrates {
		experiments.ResetRunCache()
		r := experiments.RunScale(substrate, digestScaleRequests)
		got["scale-"+substrate] = sum(fmt.Sprintf("%+v", r))
	}

	if *updateDigests {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# sha256 of each artifact id rendered alone (1 worker, cold run cache),\n")
		fmt.Fprintf(&b, "# of each -scale substrate's ScaleResult at %d requests, and the\n", digestScaleRequests)
		b.WriteString("# simulation count of a full cold render. Regenerate with\n")
		b.WriteString("#   go test ./cmd/smartconf-bench -run TestArtifactDigests -update\n")
		b.WriteString("# and say in CHANGES.md which entries moved and why.\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(digestManifest, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestManifest)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed manifest line %q", line)
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var moved []string
	for k, v := range got {
		if w, ok := want[k]; !ok {
			moved = append(moved, k+" (not in manifest)")
		} else if w != v {
			moved = append(moved, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			moved = append(moved, k+" (no longer produced)")
		}
	}
	if len(moved) > 0 {
		sort.Strings(moved)
		t.Errorf("%d of %d digests moved: %s\n(if intended, rerun with -update and record why in CHANGES.md)",
			len(moved), len(want), strings.Join(moved, ", "))
	}
}
