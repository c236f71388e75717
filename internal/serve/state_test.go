package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperline/internal/core"
)

// TestRestoreSurvivesCrashMidSnapshot: a crash in the middle of a
// snapshotting shutdown can strand tmp files next to the manifest, tear
// a dataset file, and truncate spill entries. Reboot must shrug all of
// it off — sweep the debris, skip (and log) the torn dataset, and keep
// serving everything else warm — instead of refusing to start.
func TestRestoreSurvivesCrashMidSnapshot(t *testing.T) {
	stateDir := t.TempDir()
	spillDir := filepath.Join(stateDir, "spill")
	cfg := core.PipelineConfig{}
	keep := randomHypergraph(19, 120, 90, 5)

	svc1 := New(Config{})
	if err := svc1.EnableSpill(spillDir, 0); err != nil {
		t.Fatal(err)
	}
	svc1.Add("keep", keep)
	svc1.Add("torn", paperExample())
	want := make(map[int]*core.PipelineResult)
	for _, sVal := range []int{1, 2} {
		res, _, err := lineGraph(svc1, context.Background(), "keep", sVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[sVal] = res
	}
	if _, _, err := lineGraph(svc1, context.Background(), "torn", 2, cfg); err != nil {
		t.Fatal(err)
	}
	if err := svc1.SaveState(stateDir); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash debris. Tear the "torn" dataset file (located via the
	// manifest), strand in-progress tmp files where SaveState creates
	// them, and truncate one spill entry mid-key.
	data, err := os.ReadFile(filepath.Join(stateDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	tornFile := ""
	for _, d := range m.Datasets {
		if d.Name == "torn" {
			tornFile = filepath.Join(stateDir, d.File)
		}
	}
	if tornFile == "" {
		t.Fatal("manifest has no entry for dataset torn")
	}
	if err := os.Truncate(tornFile, 10); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{
		filepath.Join(stateDir, spillTmpPrefix+"manifest-crash"),
		filepath.Join(stateDir, spillTmpPrefix+"ds-crash"),
		filepath.Join(stateDir, stateDatasetsDir, spillTmpPrefix+"ds-crash2"),
	} {
		if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spills, err := filepath.Glob(filepath.Join(spillDir, "*"+spillSuffix))
	if err != nil || len(spills) == 0 {
		t.Fatalf("no spill entries to corrupt (err=%v)", err)
	}
	if err := os.Truncate(spills[0], 13); err != nil {
		t.Fatal(err)
	}

	// Reboot. Restore must succeed, carrying every dataset except the
	// torn one.
	svc2 := New(Config{})
	if err := svc2.EnableSpill(spillDir, 0); err != nil {
		t.Fatal(err)
	}
	names, err := svc2.RestoreState(stateDir)
	if err != nil {
		t.Fatalf("restore after crash debris: %v", err)
	}
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("restored %v, want [keep] (torn is truncated)", names)
	}

	// The surviving dataset still serves, byte-identical to pre-crash.
	for _, sVal := range []int{1, 2} {
		res, _, err := lineGraph(svc2, context.Background(), "keep", sVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Graph.Edges(), want[sVal].Graph.Edges()) {
			t.Fatalf("s=%d: post-crash answer differs from pre-crash run", sVal)
		}
	}
	// The intact spill entries still warm the reboot (the one truncated
	// entry is a clean recompute, not a poisoned hit).
	if cs := svc2.CacheStats(); cs.DiskHits == 0 {
		t.Fatalf("no disk hits after reboot — spill tier lost: %+v", cs)
	}

	// The torn dataset is simply absent until re-registered.
	if _, _, err := lineGraph(svc2, context.Background(), "torn", 2, cfg); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("torn dataset: got %v, want ErrUnknownDataset", err)
	}
	svc2.Add("torn", paperExample())
	if _, _, err := lineGraph(svc2, context.Background(), "torn", 2, cfg); err != nil {
		t.Fatalf("re-registered torn dataset must serve: %v", err)
	}

	// The stray tmp files are swept, not accumulated forever.
	for _, dir := range []string{stateDir, filepath.Join(stateDir, stateDatasetsDir)} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			if strings.HasPrefix(de.Name(), spillTmpPrefix) {
				t.Fatalf("stray tmp file %s survived restore sweep", filepath.Join(dir, de.Name()))
			}
		}
	}

	// A later snapshot from the rebooted process works end to end.
	if err := svc2.SaveState(stateDir); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreCorruptManifestColdStarts: an unparseable manifest (disk
// damage) degrades to a cold start instead of refusing to boot.
func TestRestoreCorruptManifestColdStarts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	names, err := svc.RestoreState(dir)
	if err != nil {
		t.Fatalf("corrupt manifest must cold-start, got error: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("cold start restored %v, want none", names)
	}
	svc.Add("fresh", paperExample())
	if _, _, err := lineGraph(svc, context.Background(), "fresh", 2, core.PipelineConfig{}); err != nil {
		t.Fatalf("service must serve after cold start: %v", err)
	}
}
