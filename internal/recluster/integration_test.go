package recluster_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/recluster"
	"cinderella/internal/shard"
)

// shiftDoc builds one adversarial entity: two common attributes plus
// one attribute from the "a" family (fast-cycling) and one from the
// "b" family (slow-cycling), assigned independently. With 64 a×b
// combinations and 16-entity partitions, a partition can be pure in
// one family or the other but never both — whichever family the
// current workload queries decides which grouping is efficient.
func shiftDoc(i int) cinderella.Doc {
	return cinderella.Doc{
		"c0":                        i,
		"c1":                        "x",
		fmt.Sprintf("a%d", i%8):     1,
		fmt.Sprintf("b%d", (i/8)%8): 1,
	}
}

// sweep runs one query per attribute of the given family and returns
// the aggregate relevant/read byte ratio — Definition 1's EFFICIENCY
// over the sweep.
func sweep(t *shard.Sharded, family string) float64 {
	var read, relevant int64
	for i := 0; i < 8; i++ {
		_, rep := t.QueryWithReport(fmt.Sprintf("%s%d", family, i))
		read += rep.BytesRead
		relevant += rep.BytesRelevant
	}
	if read == 0 {
		return 0
	}
	return float64(relevant) / float64(read)
}

// TestReclusterRecoversAfterShift drives the full loop end to end: a
// one-shard store (the daemon's default) is trained on workload A, the workload shifts to B,
// and manager ticks with the workload-blended rating must migrate
// entities until B's efficiency improves over the frozen layout.
func TestReclusterRecoversAfterShift(t *testing.T) {
	reg := cinderella.NewObserver()
	cfg := cinderella.Config{PartitionSizeLimit: 16, Obs: reg}
	dt, err := shard.Open(t.TempDir(), shard.Options{Shards: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()

	const docs = 512
	for i := 0; i < docs; i++ {
		if _, err := dt.Insert(shiftDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	m := recluster.New(dt, reg, recluster.Config{
		BatchSize:  64,
		MaxVictims: 8,
		MinQueries: 2,
		Alpha:      0.9,
	})
	defer m.Close()

	// Phase A: warm the heat map and the query mix with the a-family
	// workload, then let the reclusterer adapt the layout to it.
	for r := 0; r < 4; r++ {
		sweep(dt, "a")
		m.Tick()
	}
	effAdapted := sweep(dt, "a")

	// The workload shifts: forget the old mix, measure B on the frozen
	// layout, then let the reclusterer chase the new workload.
	for _, h := range reg.HeatSnapshot() {
		reg.ResetHeat(h.Shard, h.Partition)
	}
	effFrozen := sweep(dt, "b")
	for r := 0; r < 8; r++ {
		sweep(dt, "b")
		m.Tick()
	}
	effRecovered := sweep(dt, "b")

	t.Logf("adapted(A)=%.3f frozen(B)=%.3f recovered(B)=%.3f", effAdapted, effFrozen, effRecovered)
	if effRecovered <= effFrozen {
		t.Fatalf("reclustering did not improve shifted-workload efficiency: frozen %.3f, recovered %.3f",
			effFrozen, effRecovered)
	}
	if got := reg.Counter(obs.CReclusterMoves); got == 0 {
		t.Fatal("no recluster moves recorded")
	}

	// Integrity: every entity survived the migrations exactly once.
	recs := dt.ScanAll()
	if len(recs) != docs {
		t.Fatalf("ScanAll after reclustering = %d records, want %d", len(recs), docs)
	}
	seen := make(map[cinderella.ID]bool, docs)
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate entity %d after reclustering", r.ID)
		}
		seen[r.ID] = true
	}

	st := m.Status()
	if st.Rounds == 0 || st.Moved == 0 {
		t.Fatalf("status = %+v, want rounds and moves", st)
	}
	if len(reg.ReclusterOutcomes()) == 0 {
		t.Fatal("no recluster outcomes settled")
	}
}

// TestDebugReclusterEndpoint pins the operational surface: with a
// manager attached, /debug/recluster reports enabled with live status;
// the metrics page exports the recluster counter families.
func TestDebugReclusterEndpoint(t *testing.T) {
	reg := cinderella.NewObserver()
	cfg := cinderella.Config{PartitionSizeLimit: 16, Obs: reg}
	dt, err := shard.Open(t.TempDir(), shard.Options{Shards: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()

	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	body := httpGet(t, srv.URL+"/debug/recluster")
	if !strings.Contains(body, `"enabled": false`) {
		t.Fatalf("pre-manager /debug/recluster = %s, want enabled false", body)
	}

	m := recluster.New(dt, reg, recluster.Config{MinQueries: 1})
	defer m.Close()
	for i := 0; i < 64; i++ {
		if _, err := dt.Insert(shiftDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	sweep(dt, "a")
	m.Tick()

	body = httpGet(t, srv.URL+"/debug/recluster")
	for _, want := range []string{`"enabled": true`, `"rounds": 1`, `"batch_size"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/recluster = %s, missing %q", body, want)
		}
	}

	metrics := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"cinderella_recluster_rounds_total 1",
		"cinderella_recluster_moves_total",
		"cinderella_recluster_batches_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
