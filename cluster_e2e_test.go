package mcspeedup_test

// End-to-end tests of the clustered deployment story using the real
// binaries: three mcs-serve processes sharing a -peers list forward
// misses to the fingerprint owner, readiness flips before the listener
// closes on SIGTERM. The fine-grained cluster semantics (placement
// goldens, coalescing proofs) live in internal/cluster's in-process
// tests; this file proves the flags and the process lifecycle wire
// together.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcspeedup/internal/cluster"
	"mcspeedup/internal/task"
)

// reserveAddrs grabs n distinct loopback addresses by binding ephemeral
// listeners and closing them. The -peers list must be known before any
// replica starts, so the ports are reserved up front; the window between
// close and the daemon's bind is too small to matter on loopback.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// clusterSet returns a small task set whose fingerprint varies with k,
// plus that fingerprint.
func clusterSet(t *testing.T, k int) (body, fingerprint string) {
	t.Helper()
	body = fmt.Sprintf(`[
  {"name":"a","crit":"HI","period":[10,10],"deadline":[5,10],"wcet":[1,2]},
  {"name":"b","crit":"LO","period":[%d,%d],"deadline":[%d,%d],"wcet":[1,1]}
]`, 5*k, 5*k, 5*k, 5*k)
	set, err := task.ParseJSON([]byte(body))
	if err != nil {
		t.Fatalf("variant %d does not parse: %v", k, err)
	}
	return body, set.Fingerprint()
}

func TestClusterBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e skipped in -short mode")
	}
	dir := buildCLIs(t)
	serveBin := filepath.Join(dir, "mcs-serve")

	addrs := reserveAddrs(t, 3)
	peers := strings.Join(addrs, ",")
	bases := make([]string, len(addrs))
	stops := make([]func() error, len(addrs))
	for i, addr := range addrs {
		bases[i], stops[i] = startServeAt(t, serveBin, addr, "-peers", peers)
	}

	// Reference bytes from a plain single-node daemon.
	refBase, _ := startServe(t, serveBin)

	body, fp := clusterSet(t, 1)
	ring := cluster.NewRing(addrs, 0)
	ownerAddr, ok := ring.Owner(fp)
	if !ok {
		t.Fatal("ring reported no owner")
	}
	ownerIdx, forwarderIdx, coldIdx := -1, -1, -1
	for i, a := range addrs {
		if a == ownerAddr {
			ownerIdx = i
		} else if forwarderIdx == -1 {
			forwarderIdx = i
		} else {
			coldIdx = i
		}
	}
	if ownerIdx < 0 || forwarderIdx < 0 || coldIdx < 0 {
		t.Fatalf("could not assign roles for owner %s among %v", ownerAddr, addrs)
	}

	// Every replica agrees on the placement.
	for i, base := range bases {
		var doc struct {
			Mode      string `json:"mode"`
			Placement struct {
				Owner string `json:"owner"`
			} `json:"placement"`
		}
		if err := json.Unmarshal(httpGet(t, base+"/v1/cluster?key="+fp), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Mode != "cluster" || doc.Placement.Owner != ownerAddr {
			t.Fatalf("replica %d resolves owner %q (mode %s), want %q", i, doc.Placement.Owner, doc.Mode, ownerAddr)
		}
	}

	reqBody := `{"tasks":` + body + `}`
	_, want := httpPost(t, refBase+"/v1/analyze", reqBody)

	// A miss through a non-owner is proxied: same bytes, owner named in
	// the response header, one forward on the proxy's metrics.
	resp, got := httpPost(t, bases[forwarderIdx]+"/v1/analyze", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded analyze: %d (%s)", resp.StatusCode, got)
	}
	if peer := resp.Header.Get("X-MCS-Peer"); peer != ownerAddr {
		t.Errorf("X-MCS-Peer = %q, want %q", peer, ownerAddr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("forwarded bytes differ from single-node reference:\n%s\nvs\n%s", got, want)
	}
	if v := metricValue(t, httpGet(t, bases[forwarderIdx]+"/metrics"), "mcs_cluster_forward_total"); v != 1 {
		t.Errorf("forwarder mcs_cluster_forward_total = %g, want 1", v)
	}

	// The owner served it locally and cached it.
	resp, direct := httpPost(t, bases[ownerIdx]+"/v1/analyze", reqBody)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(direct, want) {
		t.Errorf("owner after forward: X-Cache=%q, bytes equal=%v", resp.Header.Get("X-Cache"), bytes.Equal(direct, want))
	}

	// Kill the owner; the replica that has never seen this key must
	// degrade to local compute — same bytes, an error counted, never a
	// failed request.
	if err := stops[ownerIdx](); err != nil {
		t.Fatalf("stopping the owner: %v", err)
	}
	resp, got = httpPost(t, bases[coldIdx]+"/v1/analyze", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request for a dead owner's key: %d (%s)", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("degraded local compute differs from single-node reference")
	}
	metrics := httpGet(t, bases[coldIdx]+"/metrics")
	if v := metricValue(t, metrics, "mcs_cluster_forward_errors_total"); v < 1 {
		t.Errorf("forward errors = %g after owner death, want >= 1", v)
	}
}

// startServeAt is startServe pinned to a specific address (the shared
// -peers list requires every replica's port to be known up front).
func startServeAt(t *testing.T, bin, addr string, args ...string) (string, func() error) {
	t.Helper()
	return startServeRaw(t, bin, append([]string{"-addr", addr}, args...))
}

func TestReadyzFlipsBeforeListenerCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	dir := buildCLIs(t)
	base, stop := startServe(t, filepath.Join(dir, "mcs-serve"), "-drain-grace", "3s")

	readyz := func() (int, string) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		var doc struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc.Status
	}

	// Readiness and liveness both up after the handshake.
	if code, status := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("readyz before drain: %d %q, want 200 ready", code, status)
	}
	httpGet(t, base+"/healthz")

	// SIGTERM: /readyz must flip to 503 "draining" while the listener
	// (and /healthz) stay up for the -drain-grace window.
	done := make(chan error, 1)
	go func() { done <- stop() }()
	flipped := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if code, status := readyz(); code == http.StatusServiceUnavailable && status == "draining" {
			flipped = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never returned 503 draining during the grace window")
	}
	// Liveness is not readiness: the draining process still answers.
	httpGet(t, base+"/healthz")
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown after drain grace: %v", err)
	}
}
