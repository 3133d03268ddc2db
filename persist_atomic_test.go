package mmdr

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mmdr/internal/datagen"
)

// A save that fails partway must leave the previous model file loadable and
// no temporary file behind.
func TestSaveFileFailedWriteKeepsOldFile(t *testing.T) {
	cfg := datagen.CorrelatedConfig{N: 300, Dim: 8, NumClusters: 2, SDim: 2, VarRatio: 20, Seed: 17}
	ds, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	datagen.Normalize(ds)
	model, err := ReduceDataset(ds, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mmdr")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The failing write encodes the model but stops with an error after
	// half of it reached the temporary file.
	var full bytes.Buffer
	if err := model.Save(&full); err != nil {
		t.Fatal(err)
	}
	errWrite := errors.New("disk gone")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(full.Bytes()[:full.Len()/2]); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("writeFileAtomic returned %v, want the write error", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a failed save changed the file at the target path")
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("old model no longer loads after a failed save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed save left %v in the directory, want only m.mmdr", names)
	}
}
