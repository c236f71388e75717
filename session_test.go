package hyperline_test

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hyperline"
)

func sessionExample() *hyperline.Hypergraph {
	return hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// sessionSweep answers a projection query on a session dataset, keyed
// by s.
func sessionSweep(sess *hyperline.Session, kind hyperline.Kind, name string, sValues []int, opt hyperline.Options) (map[int]*hyperline.Result, error) {
	qr, err := sess.Execute(context.Background(), hyperline.Query{Dataset: name, Kind: kind, S: sValues, Options: opt})
	if err != nil {
		return nil, err
	}
	out := make(map[int]*hyperline.Result, len(qr.Entries))
	for _, e := range qr.Entries {
		out[e.S] = e.Result
	}
	return out, nil
}

// sessionGraph answers one projection of a session dataset.
func sessionGraph(sess *hyperline.Session, kind hyperline.Kind, name string, s int, opt hyperline.Options) (*hyperline.Result, error) {
	out, err := sessionSweep(sess, kind, name, []int{s}, opt)
	return out[s], err
}

// direct answers one projection without a session.
func direct(t *testing.T, kind hyperline.Kind, h *hyperline.Hypergraph, s int, opt hyperline.Options) *hyperline.Result {
	t.Helper()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, Kind: kind, S: []int{s}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	return qr.Entries[0].Result
}

func TestSessionCachesAcrossCalls(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	r1, err := sessionGraph(sess, hyperline.KindLine, "paper", 2, hyperline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sessionGraph(sess, hyperline.KindLine, "paper", 2, hyperline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("repeated query must return the cached result pointer")
	}
	direct := direct(t, hyperline.KindLine, sessionExample(), 2, hyperline.Options{})
	if !reflect.DeepEqual(r1.Graph.Edges(), direct.Graph.Edges()) {
		t.Fatal("session result differs from a direct Execute")
	}
	st := sess.CacheStats()
	if st.Hits < 1 || st.Entries != 1 {
		t.Fatalf("bad cache stats %+v", st)
	}
}

func TestSessionConcurrentRequestsShareOneResult(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	const n = 16
	results := make([]*hyperline.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sessionGraph(sess, hyperline.KindLine, "paper", 2, hyperline.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical requests must share one result")
		}
	}
}

func TestSessionWarmupAndClique(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	if n, err := sess.Warmup("paper", []int{1, 2, 3}, hyperline.Options{}); err != nil || n != 3 {
		t.Fatalf("warmup: n=%d err=%v", n, err)
	}
	for s := 1; s <= 3; s++ {
		res, err := sessionGraph(sess, hyperline.KindLine, "paper", s, hyperline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct := direct(t, hyperline.KindLine, sessionExample(), s, hyperline.Options{})
		if !reflect.DeepEqual(res.Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: warmed result differs from direct call", s)
		}
	}

	clique, err := sessionGraph(sess, hyperline.KindClique, "paper", 1, hyperline.Options{NoSqueeze: true})
	if err != nil {
		t.Fatal(err)
	}
	want := direct(t, hyperline.KindClique, sessionExample(), 1, hyperline.Options{NoSqueeze: true})
	if !reflect.DeepEqual(clique.Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("session clique graph differs from direct call")
	}
}

func TestSessionBatchGraphs(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	sweep := []int{1, 2, 3}
	batch, err := sessionSweep(sess, hyperline.KindLine, "paper", sweep, hyperline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch))
	}
	for _, s := range sweep {
		direct := direct(t, hyperline.KindLine, sessionExample(), s, hyperline.Options{})
		if !reflect.DeepEqual(batch[s].Graph.Edges(), direct.Graph.Edges()) {
			t.Fatalf("s=%d: batch result differs from direct call", s)
		}
		// The batch seeded the cache: single queries return the same
		// pointer.
		single, err := sessionGraph(sess, hyperline.KindLine, "paper", s, hyperline.Options{})
		if err != nil || single != batch[s] {
			t.Fatalf("s=%d: single query after batch must hit the cached pointer (err=%v)", s, err)
		}
	}

	cliques, err := sessionSweep(sess, hyperline.KindClique, "paper", []int{1, 2}, hyperline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct(t, hyperline.KindClique, sessionExample(), 2, hyperline.Options{})
	if !reflect.DeepEqual(cliques[2].Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("batched clique graph differs from direct call")
	}

	if _, err := sessionSweep(sess, hyperline.KindLine, "paper", nil, hyperline.Options{}); err == nil {
		t.Fatal("empty batch must error")
	}
}

func TestSessionLoadAndList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.bin")
	if err := hyperline.Save(path, sessionExample()); err != nil {
		t.Fatal(err)
	}
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	if err := sess.Load("disk", path); err != nil {
		t.Fatal(err)
	}
	list := sess.Datasets()
	if len(list) != 1 || list[0].Name != "disk" || list[0].Stats.NumEdges != 4 {
		t.Fatalf("bad listing %+v", list)
	}
	if _, err := sessionGraph(sess, hyperline.KindLine, "missing", 2, hyperline.Options{}); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if !sess.Remove("disk") {
		t.Fatal("remove failed")
	}
}
