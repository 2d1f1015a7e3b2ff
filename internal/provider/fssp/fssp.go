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
	"sort"
	"strings"
	"syscall"
	"time"

	"gondi/internal/core"
	"gondi/internal/filter"
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
		return obs.Instrument(&Context{root: root, env: env}, "provider", "file"), u.Path, nil
	}))
}

// Context implements core.DirContext over a directory tree.
type Context struct {
	root string
	base core.Name
	env  map[string]any
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

// NewContext roots a provider context at dir (tests, examples).
func NewContext(dir string, env map[string]any) *Context {
	return &Context{root: dir, env: env}
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
	return &Context{root: c.root, base: base, env: c.env}
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

// boundary checks path prefixes for federation references.
func (c *Context) boundary(full core.Name) error {
	for i := 1; i < full.Size(); i++ {
		prefix := full.Prefix(i)
		if r, err := readRecord(c.filePath(prefix)); err == nil {
			obj, uerr := core.Unmarshal(r.Obj)
			if uerr != nil {
				return uerr
			}
			switch obj.(type) {
			case *core.Reference, core.Context:
				return &core.CannotProceedError{
					Resolved:      obj,
					RemainingName: full.Suffix(i),
					AltName:       prefix.String(),
				}
			default:
				return core.ErrNotContext
			}
		}
	}
	return nil
}

// Lookup implements core.Context.
func (c *Context) Lookup(ctx context.Context, name string) (any, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	if r, err := readRecord(c.filePath(full)); err == nil {
		obj, uerr := core.Unmarshal(r.Obj)
		if uerr != nil {
			return nil, core.Errf("lookup", name, uerr)
		}
		return obj, nil
	}
	if fi, err := os.Stat(c.dirPath(full)); err == nil && fi.IsDir() {
		return c.child(full), nil
	}
	if err := c.boundary(full); err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	return nil, core.Errf("lookup", name, core.ErrNotFound)
}

// LookupLink implements core.Context.
func (c *Context) LookupLink(ctx context.Context, name string) (any, error) {
	return c.Lookup(ctx, name)
}

// Bind implements core.Context atomically via O_EXCL.
func (c *Context) Bind(ctx context.Context, name string, obj any) error {
	return c.BindAttrs(ctx, name, obj, nil)
}

// BindAttrs implements core.DirContext.
func (c *Context) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	if full.IsEmpty() {
		return core.Errf("bind", name, core.ErrInvalidNameEmpty)
	}
	if err := c.boundary(full); err != nil {
		return core.Errf("bind", name, err)
	}
	data, err := encodeRecord(obj, attrs)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	if _, err := os.Stat(c.dirPath(full)); err == nil {
		return core.Errf("bind", name, core.ErrAlreadyBound)
	}
	f, err := os.OpenFile(c.filePath(full), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return core.Errf("bind", name, core.ErrAlreadyBound)
		}
		if errors.Is(err, fs.ErrNotExist) {
			return core.Errf("bind", name, core.ErrNotFound)
		}
		return core.Errf("bind", name, err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return core.Errf("bind", name, err)
	}
	return nil
}

// Rebind implements core.Context.
func (c *Context) Rebind(ctx context.Context, name string, obj any) error {
	return c.rebind(ctx, name, obj, nil, false)
}

// RebindAttrs implements core.DirContext.
func (c *Context) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.rebind(ctx, name, obj, attrs, attrs != nil)
}

func (c *Context) rebind(ctx context.Context, name string, obj any, attrs *core.Attributes, replace bool) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	if full.IsEmpty() {
		return core.Errf("rebind", name, core.ErrInvalidNameEmpty)
	}
	if err := c.boundary(full); err != nil {
		return core.Errf("rebind", name, err)
	}
	if fi, err := os.Stat(c.dirPath(full)); err == nil && fi.IsDir() {
		return core.Errf("rebind", name, core.ErrNotContext)
	}
	if !replace {
		if old, err := readRecord(c.filePath(full)); err == nil {
			attrs = core.AttributesFromMap(old.Attrs)
		}
	}
	data, err := encodeRecord(obj, attrs)
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	dir := filepath.Dir(c.filePath(full))
	if _, err := os.Stat(dir); err != nil {
		return core.Errf("rebind", name, core.ErrNotFound)
	}
	tmp, err := os.CreateTemp(dir, ".fssp-*")
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return core.Errf("rebind", name, err)
	}
	tmp.Close()
	return core.Errf("rebind", name, os.Rename(tmp.Name(), c.filePath(full)))
}

// Unbind implements core.Context.
func (c *Context) Unbind(ctx context.Context, name string) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("unbind", name, err)
	}
	err = os.Remove(c.filePath(full))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return core.Errf("unbind", name, err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		// Intermediate contexts must exist.
		parent := full.Prefix(full.Size() - 1)
		if _, serr := os.Stat(c.dirPath(parent)); serr != nil {
			return core.Errf("unbind", name, core.ErrNotFound)
		}
	}
	return nil
}

// Rename implements core.Context.
func (c *Context) Rename(ctx context.Context, oldName, newName string) error {
	oldFull, err := c.full(ctx, oldName)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	newFull, err := c.full(ctx, newName)
	if err != nil {
		return core.Errf("rename", newName, err)
	}
	if _, err := os.Stat(c.filePath(newFull)); err == nil {
		return core.Errf("rename", newName, core.ErrAlreadyBound)
	}
	if _, err := os.Stat(c.dirPath(newFull)); err == nil {
		return core.Errf("rename", newName, core.ErrAlreadyBound)
	}
	if _, err := os.Stat(c.filePath(oldFull)); err != nil {
		// Renaming a subcontext directory.
		if fi, derr := os.Stat(c.dirPath(oldFull)); derr == nil && fi.IsDir() {
			return core.Errf("rename", oldName, os.Rename(c.dirPath(oldFull), c.dirPath(newFull)))
		}
		return core.Errf("rename", oldName, core.ErrNotFound)
	}
	return core.Errf("rename", oldName, os.Rename(c.filePath(oldFull), c.filePath(newFull)))
}

// List implements core.Context.
func (c *Context) List(ctx context.Context, name string) ([]core.NameClassPair, error) {
	bindings, err := c.ListBindings(ctx, name)
	if err != nil {
		return nil, err
	}
	out := make([]core.NameClassPair, len(bindings))
	for i, b := range bindings {
		out[i] = core.NameClassPair{Name: b.Name, Class: b.Class}
	}
	return out, nil
}

// ListBindings implements core.Context.
func (c *Context) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	dir := c.dirPath(full)
	fi, err := os.Stat(dir)
	if err != nil {
		if _, ferr := os.Stat(c.filePath(full)); ferr == nil {
			return nil, core.Errf("list", name, core.ErrNotContext)
		}
		return nil, core.Errf("list", name, core.ErrNotFound)
	}
	if !fi.IsDir() {
		return nil, core.Errf("list", name, core.ErrNotContext)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, core.Errf("list", name, err)
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
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// CreateSubcontext implements core.Context.
func (c *Context) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	dc, err := c.CreateSubcontextAttrs(ctx, name, nil)
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// CreateSubcontextAttrs implements core.DirContext. Attributes on
// filesystem subcontexts are not persisted (directories have no payload).
func (c *Context) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	if _, err := os.Stat(c.filePath(full)); err == nil {
		return nil, core.Errf("createSubcontext", name, core.ErrAlreadyBound)
	}
	if _, err := os.Stat(c.dirPath(full)); err == nil {
		return nil, core.Errf("createSubcontext", name, core.ErrAlreadyBound)
	}
	if err := os.Mkdir(c.dirPath(full), 0o755); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, core.Errf("createSubcontext", name, core.ErrNotFound)
		}
		return nil, core.Errf("createSubcontext", name, err)
	}
	return c.child(full), nil
}

// DestroySubcontext implements core.Context.
func (c *Context) DestroySubcontext(ctx context.Context, name string) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	dir := c.dirPath(full)
	fi, err := os.Stat(dir)
	if err != nil {
		return nil // destroying a missing subcontext succeeds
	}
	if !fi.IsDir() {
		return core.Errf("destroySubcontext", name, core.ErrNotContext)
	}
	err = os.Remove(dir)
	// POSIX lets rmdir of a non-empty directory fail either way.
	if errors.Is(err, syscall.ENOTEMPTY) || errors.Is(err, syscall.EEXIST) {
		return core.Errf("destroySubcontext", name, core.ErrContextNotEmpty)
	}
	return core.Errf("destroySubcontext", name, err)
}

// GetAttributes implements core.DirContext.
func (c *Context) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	if r, err := readRecord(c.filePath(full)); err == nil {
		return core.AttributesFromMap(r.Attrs).Select(attrIDs...), nil
	}
	if fi, err := os.Stat(c.dirPath(full)); err == nil && fi.IsDir() {
		return &core.Attributes{}, nil
	}
	return nil, core.Errf("getAttributes", name, core.ErrNotFound)
}

// ModifyAttributes implements core.DirContext.
func (c *Context) ModifyAttributes(ctx context.Context, name string, mods []core.AttributeMod) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	r, err := readRecord(c.filePath(full))
	if err != nil {
		return core.Errf("modifyAttributes", name, core.ErrNotFound)
	}
	attrs := core.AttributesFromMap(r.Attrs)
	if err := attrs.Apply(mods); err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	obj, err := core.Unmarshal(r.Obj)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	return c.rebind(ctx, name, obj, attrs, true)
}

// Search implements core.DirContext by walking the directory tree.
// SearchControls.TimeLimit bounds the walk; when it fires, the partial
// results are returned with a *core.TimeLimitExceededError. A done ctx
// aborts the walk with ctx.Err() the same way.
func (c *Context) Search(ctx context.Context, name, filterStr string, controls *core.SearchControls) ([]core.SearchResult, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	if controls == nil {
		controls = &core.SearchControls{Scope: core.ScopeSubtree}
	}
	root := c.dirPath(full)
	var deadline time.Time
	if controls.TimeLimit > 0 {
		deadline = time.Now().Add(controls.TimeLimit)
	}
	var out []core.SearchResult
	var limitHit bool
	var stopErr error
	walkErr := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || limitHit {
			return fs.SkipAll
		}
		if cerr := core.CtxErr(ctx); cerr != nil {
			stopErr = cerr
			return fs.SkipAll
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			stopErr = &core.TimeLimitExceededError{Limit: controls.TimeLimit}
			return fs.SkipAll
		}
		if de.IsDir() || !strings.HasSuffix(path, bindingExt) {
			return nil
		}
		rel, rerr := filepath.Rel(root, strings.TrimSuffix(path, bindingExt))
		if rerr != nil {
			return nil
		}
		relName := core.NewName(strings.Split(filepath.ToSlash(rel), "/")...)
		depth := relName.Size()
		switch controls.Scope {
		case core.ScopeObject:
			if depth != 0 {
				return nil
			}
		case core.ScopeOneLevel:
			if depth != 1 {
				return nil
			}
		}
		r, rerr2 := readRecord(path)
		if rerr2 != nil {
			return nil
		}
		attrs := core.AttributesFromMap(r.Attrs)
		if !attrs.MatchesFilter(f) {
			return nil
		}
		sr := core.SearchResult{Name: relName.String(), Attributes: attrs.Select(controls.ReturnAttrs...)}
		obj, uerr := core.Unmarshal(r.Obj)
		if uerr != nil {
			return nil
		}
		sr.Class = core.ClassOf(obj)
		if controls.ReturnObject {
			sr.Object = obj
		}
		out = append(out, sr)
		if controls.CountLimit > 0 && len(out) >= controls.CountLimit {
			limitHit = true
		}
		return nil
	})
	if walkErr != nil {
		return nil, core.Errf("search", name, walkErr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if stopErr != nil {
		return out, stopErr
	}
	if limitHit {
		return out, &core.LimitExceededError{Limit: controls.CountLimit}
	}
	return out, nil
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
