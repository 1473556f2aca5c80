package storage

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"intensional/internal/fault"
	"intensional/internal/relation"
)

// manifest is the on-disk index of a saved database directory.
type manifest struct {
	Relations []relationMeta `json:"relations"`
}

type relationMeta struct {
	Name    string       `json:"name"`
	File    string       `json:"file"`
	Columns []columnMeta `json:"columns"`
}

type columnMeta struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

const manifestFile = "manifest.json"

func typeName(t relation.Type) string {
	return t.String()
}

func typeFromName(s string) (relation.Type, error) {
	switch s {
	case "string":
		return relation.TString, nil
	case "int":
		return relation.TInt, nil
	case "float":
		return relation.TFloat, nil
	default:
		return 0, fmt.Errorf("storage: unknown column type %q", s)
	}
}

// fileFor maps a relation name to a stable, filesystem-safe CSV filename.
// Names that are already plain lowercase alphanumerics map to themselves;
// any name that needed sanitising is suffixed with a short hash of the
// original, so distinct names such as SHIP_CLASS and SHIP-CLASS (both
// sanitising to "ship_class") get distinct files instead of silently
// overwriting each other on Save.
func fileFor(name string) string {
	var b strings.Builder
	sanitised := false
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
			sanitised = true
		}
	}
	if sanitised || b.Len() == 0 {
		h := fnv.New32a()
		h.Write([]byte(name))
		fmt.Fprintf(&b, "_%08x", h.Sum32())
	}
	return b.String() + ".csv"
}

// Save writes every relation in the catalog to dir as CSV files plus a
// manifest recording schemas. The write is atomic at the directory
// level: contents are built in a temporary sibling directory and swapped
// into place, so a crash or error mid-save never leaves dir corrupt — a
// previously saved database there stays loadable. Because rule relations
// live in the same catalog as the data, a single Save relocates the
// database together with its induced knowledge.
func (c *Catalog) Save(dir string) error {
	return c.SaveFS(fault.OS, dir)
}

// SaveFS is Save through an explicit filesystem — the fault-injection
// seam. Tests pass a fault.Injector to fail individual operations of
// the save protocol.
func (c *Catalog) SaveFS(fsys fault.FS, dir string) error {
	return WriteAtomicFS(fsys, dir, func(tmp string) error {
		return c.WriteIntoFS(fsys, tmp)
	})
}

// WriteAtomic replaces dir with the contents fill writes, atomically:
// fill receives a fresh temporary directory next to dir, and only after
// it returns successfully is the finished tree renamed into place. If
// fill (or the process) dies midway, dir is untouched. When dir already
// exists it is moved aside before the swap and removed after, so a crash
// in the narrow window between the two renames leaves the old data
// recoverable under a ".old" sibling rather than destroyed. After the
// final rename the parent directory is fsynced: rename(2) alone only
// orders the metadata in memory, so without the parent sync a power cut
// after "save succeeded" could still resurface the old directory.
func WriteAtomic(dir string, fill func(tmp string) error) error {
	return WriteAtomicFS(fault.OS, dir, fill)
}

// WriteAtomicFS is WriteAtomic through an explicit filesystem.
func WriteAtomicFS(fsys fault.FS, dir string, fill func(tmp string) error) (err error) {
	dir = filepath.Clean(dir)
	parent := filepath.Dir(dir)
	if mkErr := fsys.MkdirAll(parent, 0o755); mkErr != nil {
		return fmt.Errorf("storage: save: %w", mkErr)
	}
	tmp, tmpErr := fsys.MkdirTemp(parent, filepath.Base(dir)+".tmp")
	if tmpErr != nil {
		return fmt.Errorf("storage: save: %w", tmpErr)
	}
	// Cleanup on every path; after a successful swap tmp no longer
	// exists and RemoveAll is a no-op.
	defer func() {
		if rmErr := fsys.RemoveAll(tmp); rmErr != nil && err == nil {
			err = fmt.Errorf("storage: save: %w", rmErr)
		}
	}()
	if fillErr := fill(tmp); fillErr != nil {
		return fillErr
	}
	old := dir + ".old"
	hadOld := false
	if _, statErr := os.Stat(dir); statErr == nil {
		// A leftover .old from an older interrupted swap is disposable:
		// dir itself is the current complete generation.
		if _, statErr := os.Stat(old); statErr == nil {
			if rmErr := fsys.RemoveAll(old); rmErr != nil {
				return fmt.Errorf("storage: save: %w", rmErr)
			}
		}
		if mvErr := fsys.Rename(dir, old); mvErr != nil {
			return fmt.Errorf("storage: save: %w", mvErr)
		}
		hadOld = true
	}
	if mvErr := fsys.Rename(tmp, dir); mvErr != nil {
		if hadOld {
			if rerr := fsys.Rename(old, dir); rerr != nil {
				return fmt.Errorf("storage: save: %v (restoring previous directory also failed: %w)", mvErr, rerr)
			}
		}
		return fmt.Errorf("storage: save: %w", mvErr)
	}
	// Make both renames durable before declaring success (and before
	// destroying the .old fallback): the swap is one set of entries in
	// the parent directory, and only its fsync pins them across a power
	// cut.
	if syncErr := fsys.SyncDir(parent); syncErr != nil {
		return fmt.Errorf("storage: save: sync parent dir: %w", syncErr)
	}
	if hadOld {
		if rmErr := fsys.RemoveAll(old); rmErr != nil {
			return fmt.Errorf("storage: save: %w", rmErr)
		}
	}
	return nil
}

// RecoverAtomic repairs the aftermath of a crash inside WriteAtomic's
// swap window. When dir lacks a complete generation (no manifest) but
// the ".old" sibling from an interrupted swap holds one, the old
// generation is renamed back into place; when dir is complete, stale
// ".old" and ".tmp*" siblings are deleted. Idempotent and a no-op on a
// healthy directory; callers run it before Load.
func RecoverAtomic(dir string) error { return RecoverAtomicFS(fault.OS, dir) }

// RecoverAtomicFS is RecoverAtomic through an explicit filesystem.
func RecoverAtomicFS(fsys fault.FS, dir string) error {
	dir = filepath.Clean(dir)
	old := dir + ".old"
	// Leftover temporaries from interrupted fills are never the good
	// generation — a temporary only becomes one by being renamed to dir.
	tmps, globErr := filepath.Glob(dir + ".tmp*")
	if globErr != nil {
		return fmt.Errorf("storage: recover: %w", globErr)
	}
	for _, tmp := range tmps {
		if rmErr := fsys.RemoveAll(tmp); rmErr != nil {
			return fmt.Errorf("storage: recover: %w", rmErr)
		}
	}
	if _, statErr := os.Stat(filepath.Join(dir, manifestFile)); statErr == nil {
		// dir is complete; a surviving .old is from a swap that finished
		// its second rename but died before the cleanup.
		if _, statErr := os.Stat(old); statErr == nil {
			if rmErr := fsys.RemoveAll(old); rmErr != nil {
				return fmt.Errorf("storage: recover: %w", rmErr)
			}
		}
		return nil
	}
	if _, statErr := os.Stat(filepath.Join(old, manifestFile)); statErr != nil {
		return nil // nothing to restore from; Load will report dir's state
	}
	// The swap died between its renames: .old holds the only complete
	// generation. Put it back.
	if _, statErr := os.Stat(dir); statErr == nil {
		if rmErr := fsys.RemoveAll(dir); rmErr != nil {
			return fmt.Errorf("storage: recover: %w", rmErr)
		}
	}
	if mvErr := fsys.Rename(old, dir); mvErr != nil {
		return fmt.Errorf("storage: recover: %w", mvErr)
	}
	// Make the restore itself durable: without the parent sync a second
	// crash could undo the recovery it just reported as done.
	if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
		return fmt.Errorf("storage: recover: %w", err)
	}
	return nil
}

// WriteInto writes the catalog's manifest and CSVs directly into dir
// (created if needed), without the atomic swap. Most callers want Save;
// WriteInto exists for composing larger atomic units — core.System.Save
// adds the dictionary declarations to the same temporary directory
// before the swap, so the whole database directory replaces atomically.
func (c *Catalog) WriteInto(dir string) error {
	return c.WriteIntoFS(fault.OS, dir)
}

// WriteIntoFS is WriteInto through an explicit filesystem.
func (c *Catalog) WriteIntoFS(fsys fault.FS, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	var m manifest
	usedBy := make(map[string]string) // target file → relation name
	for _, name := range c.Names() {
		r, err := c.Get(name)
		if err != nil {
			return err
		}
		meta := relationMeta{Name: r.Name(), File: fileFor(r.Name())}
		if prev, dup := usedBy[meta.File]; dup {
			return fmt.Errorf("storage: save: relations %q and %q both map to file %s",
				prev, r.Name(), meta.File)
		}
		usedBy[meta.File] = r.Name()
		for _, col := range r.Schema().Columns() {
			meta.Columns = append(meta.Columns, columnMeta{Name: col.Name, Type: typeName(col.Type)})
		}
		if err := saveCSV(fsys, filepath.Join(dir, meta.File), r); err != nil {
			return err
		}
		m.Relations = append(m.Relations, meta)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: save manifest: %w", err)
	}
	if err := writeFileSync(fsys, filepath.Join(dir, manifestFile), data); err != nil {
		return fmt.Errorf("storage: save manifest: %w", err)
	}
	// Every file's bytes are fsynced; sync the directory so the entries
	// pointing at them are durable too.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	return nil
}

// writeFileSync writes data to a new file and fsyncs it before close,
// so a success return means the contents survive a crash. The entry
// itself still needs a directory sync, which callers own.
func writeFileSync(fsys fault.FS, path string, data []byte) (err error) {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads a database directory written by Save into a new catalog.
func Load(dir string) (*Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: load manifest: %w", err)
	}
	c := NewCatalog()
	for _, meta := range m.Relations {
		cols := make([]relation.Column, len(meta.Columns))
		for i, cm := range meta.Columns {
			t, err := typeFromName(cm.Type)
			if err != nil {
				return nil, fmt.Errorf("storage: relation %s: %w", meta.Name, err)
			}
			cols[i] = relation.Column{Name: cm.Name, Type: t}
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, fmt.Errorf("storage: relation %s: %w", meta.Name, err)
		}
		r, err := loadCSV(filepath.Join(dir, meta.File), meta.Name, schema)
		if err != nil {
			return nil, err
		}
		c.Put(r)
	}
	return c, nil
}

// nullSentinel marks SQL NULL in CSV cells; a literal string of this form
// is escaped by prefixing a backslash.
const nullSentinel = `\N`

func saveCSV(fsys fault.FS, path string, r *relation.Relation) (err error) {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("storage: save %s: %w", r.Name(), err)
	}
	// Close exactly once, on every path; a failed close loses buffered
	// writes, so it surfaces unless an earlier error already did.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("storage: save %s: %w", r.Name(), cerr)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(r.Schema().Names()); err != nil {
		return fmt.Errorf("storage: save %s: %w", r.Name(), err)
	}
	rec := make([]string, r.Schema().Len())
	for _, t := range r.Rows() {
		for i, v := range t {
			switch {
			case v.IsNull():
				rec[i] = nullSentinel
			case v.Kind() == relation.KindString && strings.HasPrefix(v.Str(), `\`):
				rec[i] = `\` + v.Str()
			default:
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			return fmt.Errorf("storage: save %s: %w", r.Name(), err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("storage: save %s: %w", r.Name(), err)
	}
	// Success means the rows are durable, not merely buffered in the
	// page cache: a crash after "saved" must not lose them.
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: save %s: %w", r.Name(), err)
	}
	return nil
}

func loadCSV(path, name string, schema *relation.Schema) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	rd := csv.NewReader(f)
	records, err := rd.ReadAll()
	// The file is fully consumed by ReadAll; close before decoding and
	// report the first failure.
	cerr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, cerr)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("storage: load %s: missing header", name)
	}
	header := records[0]
	if len(header) != schema.Len() {
		return nil, fmt.Errorf("storage: load %s: header has %d columns, manifest %d",
			name, len(header), schema.Len())
	}
	r := relation.New(name, schema)
	for rowNo, rec := range records[1:] {
		t := make(relation.Tuple, len(rec))
		for i, cell := range rec {
			switch {
			case cell == nullSentinel:
				t[i] = relation.Null()
			case strings.HasPrefix(cell, `\`) && schema.Col(i).Type == relation.TString:
				t[i] = relation.String(cell[1:])
			default:
				v, err := relation.ParseValue(cell, schema.Col(i).Type)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s row %d column %s: %w", name, rowNo+1, schema.Col(i).Name, err)
				}
				t[i] = v
			}
		}
		if err := r.Insert(t); err != nil {
			return nil, fmt.Errorf("storage: load %s row %d: %w", name, rowNo+1, err)
		}
	}
	return r, nil
}
