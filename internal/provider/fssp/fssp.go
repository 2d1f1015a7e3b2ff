// Package fssp is the JNDI service provider for local filesystem storage
// — one of the pre-existing providers the paper mentions federating with
// (§6: "DNS, LDAP, or a local filesystem storage"). Subcontexts are
// directories; bindings are files holding the codec form of the object
// plus its attributes. Bind is atomic via O_EXCL file creation.
package fssp

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"gondi/internal/core"
	"gondi/internal/obs"
)

// bindingExt marks binding files; directories are subcontexts.
const bindingExt = ".binding"

// Register installs the "file" URL scheme provider. URLs take the form
// file:///abs/path or file://host/path (host ignored, like file URLs).
func Register() {
	core.RegisterProvider("file", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		if err := core.CtxErr(ctx); err != nil {
			return nil, core.Name{}, err
		}
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		// file:///tmp/x parses to authority "" and path "tmp/x"; the
		// root is the filesystem root.
		root := "/"
		if u.Authority != "" && u.Authority != "localhost" {
			return nil, core.Name{}, fmt.Errorf("fssp: remote file URLs unsupported: %q", u.Authority)
		}
		return obs.Instrument(NewContext(root, env), "provider", "file"), u.Path, nil
	}))
}

// Context implements core.DirContext over a directory tree.
type Context struct {
	core.OpContext // the typed surface, spelled over Do
	root           string
	base           core.Name
	env            map[string]any
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

// NewContext roots a provider context at dir (tests, examples).
func NewContext(dir string, env map[string]any) *Context {
	c := &Context{root: dir, env: env}
	c.Doer = c
	return c
}

// record is the on-disk form of a binding.
type record struct {
	Obj   []byte
	Attrs map[string][]string
}

// parse is core.ParseLocalName plus the filesystem's own rule: no
// component may climb out of, or address a path below, its directory.
func (c *Context) parse(name string) (core.Name, error) {
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Name{}, err
	}
	for _, comp := range n.Components() {
		if comp == "." || comp == ".." || strings.ContainsAny(comp, "/\\") {
			return core.Name{}, &core.InvalidNameError{Name: name, Reason: "path traversal component"}
		}
	}
	return n, nil
}

// full parses name and prepends the context base; it also front-checks
// ctx so every operation fails fast once the caller's budget is gone.
func (c *Context) full(ctx context.Context, name string) (core.Name, error) {
	if err := core.CtxErr(ctx); err != nil {
		return core.Name{}, err
	}
	n, err := c.parse(name)
	if err != nil {
		return core.Name{}, err
	}
	return c.base.Concat(n), nil
}

func (c *Context) dirPath(n core.Name) string {
	return filepath.Join(append([]string{c.root}, n.Components()...)...)
}

func (c *Context) filePath(n core.Name) string {
	return c.dirPath(n) + bindingExt
}

func (c *Context) child(base core.Name) *Context {
	ch := NewContext(c.root, c.env)
	ch.base = base
	return ch
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

func encodeRecord(obj any, attrs *core.Attributes) ([]byte, error) {
	data, err := core.Marshal(obj)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(record{Obj: data, Attrs: attrs.ToMap()}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// probe is the name-resolution rule's probe: a binding file, a
// directory, or neither.
func (c *Context) probe(_ context.Context, n core.Name) (core.Bound, any, error) {
	r, err := readRecord(c.filePath(n))
	if err == nil {
		obj, err := core.Unmarshal(r.Obj)
		return core.BoundObject, obj, err
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return core.BoundNothing, nil, err
	}
	if fi, err := os.Stat(c.dirPath(n)); err == nil && fi.IsDir() {
		return core.BoundContext, nil, nil
	}
	return core.BoundNothing, nil, nil
}

// Do implements core.Doer: each operation is a few filesystem calls on
// the binding file or directory of the full name. A failure gets the
// name-resolution rule's answer; Search gets it before its walk, which
// finds nothing alike under a missing base and under a junction.
func (c *Context) Do(ctx context.Context, op core.Op) (res core.Result, err error) {
	full, err := c.full(ctx, op.Name)
	if err != nil {
		return res, core.OpErr(op, err)
	}
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink:
		res.Value, err = c.lookup(full)
	case core.OpBind:
		err = c.bind(full, op.Obj, op.Attrs)
	case core.OpRebind:
		err = c.rebind(full, op.Obj, op.Attrs, op.Attrs != nil)
	case core.OpUnbind:
		err = c.unbind(full)
	case core.OpRename:
		newFull, perr := c.full(ctx, op.NewName)
		if perr != nil {
			err = core.OnNewName(perr)
			break
		}
		err = c.rename(full, newFull)
	case core.OpList, core.OpListBindings:
		var bs []core.Binding
		if bs, err = c.list(full); err == nil {
			res = core.ListResult(op.Kind, bs)
		}
	case core.OpCreateSubcontext:
		if err = c.mkdir(full); err == nil {
			res.Context = c.child(full)
		}
	case core.OpDestroySubcontext:
		err = c.rmdir(full)
	case core.OpGetAttributes:
		if r, rerr := readRecord(c.filePath(full)); rerr == nil {
			res.Attrs = core.AttributesFromMap(r.Attrs).Select(op.AttrIDs...)
		} else if fi, serr := os.Stat(c.dirPath(full)); serr == nil && fi.IsDir() {
			res.Attrs = &core.Attributes{}
		} else {
			err = core.ErrNotFound
		}
	case core.OpModifyAttributes:
		err = c.modify(full, op.Mods)
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err == nil {
			if err = core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe); err == nil {
				c.search(s, full)
				res.Found, err = s.Done()
				return res, err // a stopped walk's partial results, as they are
			}
		}
		return res, core.OpErr(op, err)
	default:
		err = core.ErrNotSupported
	}
	if err != nil {
		err = core.Resolve(ctx, op.Kind, c.base, full, err, c.probe)
	}
	return res, core.OpErr(op, err)
}

func (c *Context) lookup(full core.Name) (any, error) {
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	if r, err := readRecord(c.filePath(full)); err == nil {
		return core.Unmarshal(r.Obj)
	}
	if fi, err := os.Stat(c.dirPath(full)); err == nil && fi.IsDir() {
		return c.child(full), nil
	}
	return nil, core.ErrNotFound
}

// bind is atomic via O_EXCL.
func (c *Context) bind(full core.Name, obj any, attrs *core.Attributes) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	data, err := encodeRecord(obj, attrs)
	if err != nil {
		return err
	}
	if _, err := os.Stat(c.dirPath(full)); err == nil {
		return core.ErrAlreadyBound
	}
	f, err := os.OpenFile(c.filePath(full), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return core.ErrAlreadyBound
		}
		if errors.Is(err, fs.ErrNotExist) {
			return core.ErrNotFound
		}
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// rebind replaces the binding file through a rename, keeping its
// attributes unless replace.
func (c *Context) rebind(full core.Name, obj any, attrs *core.Attributes, replace bool) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	if fi, err := os.Stat(c.dirPath(full)); err == nil && fi.IsDir() {
		return core.ErrNotContext
	}
	if !replace {
		if old, err := readRecord(c.filePath(full)); err == nil {
			attrs = core.AttributesFromMap(old.Attrs)
		}
	}
	data, err := encodeRecord(obj, attrs)
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.filePath(full))
	if _, err := os.Stat(dir); err != nil {
		return core.ErrNotFound
	}
	tmp, err := os.CreateTemp(dir, ".fssp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	tmp.Close()
	return os.Rename(tmp.Name(), c.filePath(full))
}

// unbind removes the binding file; an absent one is not found.
func (c *Context) unbind(full core.Name) error {
	err := os.Remove(c.filePath(full))
	if errors.Is(err, fs.ErrNotExist) {
		return core.ErrNotFound
	}
	return err
}

func (c *Context) rename(oldFull, newFull core.Name) error {
	if _, err := os.Stat(c.filePath(newFull)); err == nil {
		return core.OnNewName(core.ErrAlreadyBound)
	}
	if _, err := os.Stat(c.dirPath(newFull)); err == nil {
		return core.OnNewName(core.ErrAlreadyBound)
	}
	if _, err := os.Stat(c.filePath(oldFull)); err != nil {
		// Renaming a subcontext directory.
		if fi, derr := os.Stat(c.dirPath(oldFull)); derr == nil && fi.IsDir() {
			return os.Rename(c.dirPath(oldFull), c.dirPath(newFull))
		}
		return core.ErrNotFound
	}
	return os.Rename(c.filePath(oldFull), c.filePath(newFull))
}

func (c *Context) list(full core.Name) ([]core.Binding, error) {
	dir := c.dirPath(full)
	des, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, core.ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	var out []core.Binding
	for _, de := range des {
		if de.IsDir() {
			out = append(out, core.Binding{
				Name:   de.Name(),
				Class:  core.ContextReferenceClass,
				Object: c.child(full.Append(de.Name())),
			})
			continue
		}
		if !strings.HasSuffix(de.Name(), bindingExt) {
			continue
		}
		bindName := strings.TrimSuffix(de.Name(), bindingExt)
		r, rerr := readRecord(filepath.Join(dir, de.Name()))
		if rerr != nil {
			continue
		}
		obj, uerr := core.Unmarshal(r.Obj)
		if uerr != nil {
			continue
		}
		out = append(out, core.Binding{Name: bindName, Class: core.ClassOf(obj), Object: obj})
	}
	return out, nil
}

// mkdir creates a subcontext. Attributes on filesystem subcontexts are
// not persisted (directories have no payload).
func (c *Context) mkdir(full core.Name) error {
	if _, err := os.Stat(c.filePath(full)); err == nil {
		return core.ErrAlreadyBound
	}
	if _, err := os.Stat(c.dirPath(full)); err == nil {
		return core.ErrAlreadyBound
	}
	err := os.Mkdir(c.dirPath(full), 0o755)
	if errors.Is(err, fs.ErrNotExist) {
		return core.ErrNotFound
	}
	return err
}

// rmdir destroys an empty subcontext; a missing one is not found.
func (c *Context) rmdir(full core.Name) error {
	dir := c.dirPath(full)
	fi, err := os.Stat(dir)
	if err != nil {
		return core.ErrNotFound
	}
	if !fi.IsDir() {
		return core.ErrNotContext
	}
	err = os.Remove(dir)
	// POSIX lets rmdir of a non-empty directory fail either way.
	if errors.Is(err, syscall.ENOTEMPTY) || errors.Is(err, syscall.EEXIST) {
		return core.ErrContextNotEmpty
	}
	return err
}

func (c *Context) modify(full core.Name, mods []core.AttributeMod) error {
	r, err := readRecord(c.filePath(full))
	if err != nil {
		return core.ErrNotFound
	}
	attrs := core.AttributesFromMap(r.Attrs)
	if err := attrs.Apply(mods); err != nil {
		return err
	}
	obj, err := core.Unmarshal(r.Obj)
	if err != nil {
		return err
	}
	return c.rebind(full, obj, attrs, true)
}

// search walks the directory tree under full, offering each binding
// file, and does not enter a directory the scope does not descend into.
// A base that names a binding is the one entry, at depth 0.
func (c *Context) search(s *core.Search, full core.Name) {
	if r, err := readRecord(c.filePath(full)); err == nil {
		if !s.Stopped() {
			offer(s, core.Name{}, r)
		}
		return
	}
	root := c.dirPath(full)
	_ = filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || s.Stopped() {
			return fs.SkipAll
		}
		rel, rerr := filepath.Rel(root, strings.TrimSuffix(path, bindingExt))
		if rerr != nil {
			return nil
		}
		var relName core.Name
		if rel != "." {
			relName = core.NewName(strings.Split(filepath.ToSlash(rel), "/")...)
		}
		if de.IsDir() {
			if !s.Controls.Scope.Descends(relName.Size()) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, bindingExt) {
			return nil
		}
		if r, rerr := readRecord(path); rerr == nil {
			offer(s, relName, r)
		}
		return nil
	})
}

// offer hands the binding record r, at rel below the search base, to s.
func offer(s *core.Search, rel core.Name, r *record) {
	attrs := core.AttributesFromMap(r.Attrs)
	if !s.Match(rel.Size(), attrs) {
		return
	}
	if obj, err := core.Unmarshal(r.Obj); err == nil {
		s.Add(rel, attrs, obj, false)
	}
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context.
func (c *Context) Close() error { return nil }

// Reference implements core.Referenceable.
func (c *Context) Reference() (*core.Reference, error) {
	path := filepath.Join(append([]string{c.root}, c.base.Components()...)...)
	return core.NewContextReference("file://" + path), nil
}
