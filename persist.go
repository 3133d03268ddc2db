package mmdr

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mmdr/internal/dataset"
	"mmdr/internal/quant"
	"mmdr/internal/reduction"
)

// modelFile is the gob-serialized form of a Model. All referenced types
// (dataset.Dataset, reduction.Result, matrix.Mat) have exported fields, so
// stdlib gob round-trips them without custom codecs. The persistdrift
// analyzer audits the envelope: every field must be written by Save and
// read back (or validated) by Load, so the struct and the two functions
// cannot drift apart.
//
//mmdr:persist save=Save load=Load
type modelFile struct {
	Version int
	Method  string
	Dim     int
	Data    *dataset.Dataset
	Result  *reduction.Result
	// Quant is the trained product quantizer, nil when the model has none.
	// Optional fields decode as nil from older files, so the version is
	// unchanged.
	Quant *quant.Set
}

const modelFileVersion = 1

// Save serializes the model — data and reduction — to w.
func (m *Model) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	return enc.Encode(modelFile{
		Version: modelFileVersion,
		Method:  m.method,
		Dim:     m.ds.Dim,
		Data:    m.ds,
		Result:  m.result,
		Quant:   m.quant,
	})
}

// SaveFile writes the model to path. The write is atomic: a crash or a
// failed encode leaves any earlier file at path as it was.
func (m *Model) SaveFile(path string) error {
	return writeFileAtomic(path, m.Save)
}

// writeFileAtomic streams write's output into a temporary file in path's
// directory, syncs and closes it, then renames it over path. On any error
// the temporary file is removed and path is left untouched. A replaced
// file keeps its permission bits; a new one gets 0644.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	perm := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		perm = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = f.Chmod(perm)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("mmdr: decoding model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("mmdr: unsupported model file version %d", mf.Version)
	}
	if mf.Data == nil || mf.Result == nil {
		return nil, fmt.Errorf("mmdr: corrupt model file")
	}
	if mf.Dim != mf.Data.Dim {
		return nil, fmt.Errorf("mmdr: corrupt model file: header dim %d != dataset dim %d", mf.Dim, mf.Data.Dim)
	}
	m := &Model{ds: mf.Data, result: mf.Result, method: mf.Method, quant: mf.Quant}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mmdr: loaded model invalid: %w", err)
	}
	// The query kernel caches (transposed basis, Cholesky factor of CovInv)
	// live in unexported fields gob does not carry; rebuild them so a loaded
	// model queries on the same fast paths as a freshly built one. The
	// quantizer's table offsets are the same kind of derived state.
	for _, s := range m.result.Subspaces {
		s.EnsureKernels()
	}
	if m.quant != nil {
		m.quant.EnsureKernels()
		if err := m.quant.Validate(); err != nil {
			return nil, fmt.Errorf("mmdr: loaded quantizer invalid: %w", err)
		}
	}
	return m, nil
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
