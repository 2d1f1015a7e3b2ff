// Package core implements the paper's primary contribution: a naming and
// directory client API modelled on JNDI, with pluggable service providers,
// object/state factories, and federation of heterogeneous naming systems
// into a single composite name space addressed by URL names.
//
// Data entries are <name, object, attributes> tuples. Contexts are
// hierarchical; a composite name such as
//
//	dns://global/emory/mathcs/dcl/mokey
//
// may span several substrate naming systems (DNS, then HDNS, then LDAP in
// the paper's running example). Clients hold an InitialContext and address
// everything through it; heterogeneity is hidden behind the Context and
// DirContext interfaces, exactly as argued in §3 of the paper.
package core

import (
	"fmt"
	"strings"
)

// Name is a parsed composite name: an ordered sequence of components
// separated by '/' in string form. Components may contain any character;
// '/' '\' and '"' must be escaped with '\' in string form (JNDI composite
// name syntax, simplified to backslash escapes).
//
// The zero value is the empty name.
type Name struct {
	comps []string
}

// NewName builds a name directly from components (no unescaping).
func NewName(components ...string) Name {
	c := make([]string, len(components))
	copy(c, components)
	return Name{comps: c}
}

// ParseName parses the composite name syntax. A leading or trailing '/'
// denotes an empty component only when the whole name is "/" (the root);
// otherwise empty components are dropped, matching the lenient behaviour
// most JNDI providers implement.
func ParseName(s string) (Name, error) {
	if s == "" {
		return Name{}, nil
	}
	var comps []string
	var cur strings.Builder
	escaped := false
	started := false
	flush := func() {
		if started {
			comps = append(comps, cur.String())
			cur.Reset()
			started = false
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if escaped {
			cur.WriteByte(c)
			started = true
			escaped = false
			continue
		}
		switch c {
		case '\\':
			escaped = true
			started = true
		case '/':
			flush()
		default:
			cur.WriteByte(c)
			started = true
		}
	}
	if escaped {
		return Name{}, &InvalidNameError{Name: s, Reason: "trailing escape"}
	}
	flush()
	return Name{comps: comps}, nil
}

// MustParseName is ParseName but panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// escapeComponent escapes '/', '\' in a component for composite syntax.
func escapeComponent(c string) string {
	if !strings.ContainsAny(c, `/\`) {
		return c
	}
	var b strings.Builder
	for i := 0; i < len(c); i++ {
		if c[i] == '/' || c[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c[i])
	}
	return b.String()
}

// String renders the name in composite syntax; ParseName(n.String())
// reproduces n.
func (n Name) String() string {
	parts := make([]string, len(n.comps))
	for i, c := range n.comps {
		parts[i] = escapeComponent(c)
	}
	return strings.Join(parts, "/")
}

// Size returns the number of components.
func (n Name) Size() int { return len(n.comps) }

// IsEmpty reports whether the name has no components.
func (n Name) IsEmpty() bool { return len(n.comps) == 0 }

// Get returns the i-th component. It panics if i is out of range.
func (n Name) Get(i int) string { return n.comps[i] }

// First returns the first component, or "" for the empty name.
func (n Name) First() string {
	if len(n.comps) == 0 {
		return ""
	}
	return n.comps[0]
}

// Last returns the final component, or "" for the empty name.
func (n Name) Last() string {
	if len(n.comps) == 0 {
		return ""
	}
	return n.comps[len(n.comps)-1]
}

// Prefix returns the name consisting of the first i components.
func (n Name) Prefix(i int) Name { return Name{comps: n.comps[:i:i]} }

// Suffix returns the name consisting of the components from index i on.
func (n Name) Suffix(i int) Name { return Name{comps: n.comps[i:]} }

// Append returns a new name with the given components appended.
func (n Name) Append(components ...string) Name {
	out := make([]string, 0, len(n.comps)+len(components))
	out = append(out, n.comps...)
	out = append(out, components...)
	return Name{comps: out}
}

// Concat returns the concatenation n + m.
func (n Name) Concat(m Name) Name { return n.Append(m.comps...) }

// Components returns a copy of the component slice.
func (n Name) Components() []string {
	out := make([]string, len(n.comps))
	copy(out, n.comps)
	return out
}

// Equal reports component-wise equality.
func (n Name) Equal(m Name) bool {
	if len(n.comps) != len(m.comps) {
		return false
	}
	for i := range n.comps {
		if n.comps[i] != m.comps[i] {
			return false
		}
	}
	return true
}

// StartsWith reports whether m is a prefix of n.
func (n Name) StartsWith(m Name) bool {
	if len(m.comps) > len(n.comps) {
		return false
	}
	return n.Prefix(len(m.comps)).Equal(m)
}

// URLName is a parsed URL-form composite name: scheme://authority/path.
// The path part is itself a composite name that may span further naming
// systems (federation).
type URLName struct {
	Scheme    string
	Authority string // host[:port], may be empty
	Path      Name
}

// String reassembles the URL name.
func (u URLName) String() string {
	s := u.Scheme + "://" + u.Authority
	if !u.Path.IsEmpty() {
		s += "/" + u.Path.String()
	}
	return s
}

// IsURLName reports whether s looks like a URL-form name: an alphabetic
// scheme followed by "://" or ":".
func IsURLName(s string) bool {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return false
	}
	for j := 0; j < i; j++ {
		c := s[j]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' && j > 0 || c == '+' || c == '-' || c == '.') {
			return false
		}
	}
	return true
}

// ParseURLName splits a URL-form name into scheme, authority and path.
func ParseURLName(s string) (URLName, error) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return URLName{}, &InvalidNameError{Name: s, Reason: "no scheme"}
	}
	scheme := strings.ToLower(s[:i])
	rest := s[i+1:]
	if !strings.HasPrefix(rest, "//") {
		return URLName{}, &InvalidNameError{Name: s, Reason: "missing // after scheme"}
	}
	rest = rest[2:]
	var authority, path string
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		authority, path = rest[:j], rest[j+1:]
	} else {
		authority = rest
	}
	p, err := ParseName(path)
	if err != nil {
		return URLName{}, err
	}
	return URLName{Scheme: scheme, Authority: authority, Path: p}, nil
}

// ParseLocalName parses a name handed to a provider context. A plain name
// parses as a composite name; a URL-form name is foreign to a non-initial
// context, so it comes back as the federation continuation to that URL's
// naming system (Resolved "scheme://authority", the path remaining).
func ParseLocalName(name string) (Name, error) {
	if !IsURLName(name) {
		return ParseName(name)
	}
	u, err := ParseURLName(name)
	if err != nil {
		return Name{}, err
	}
	return Name{}, &CannotProceedError{
		Resolved:      u.Scheme + "://" + u.Authority,
		RemainingName: u.Path,
		AltName:       name,
	}
}

// SplitName parses s either as a URL name (returning ok=true and the URL)
// or as a plain composite name.
func SplitName(s string) (u URLName, n Name, isURL bool, err error) {
	if IsURLName(s) {
		u, err = ParseURLName(s)
		return u, Name{}, true, err
	}
	n, err = ParseName(s)
	return URLName{}, n, false, err
}

// ComposeName composes a name relative to a prefix, the JNDI
// Context.composeName analog for providers implementing NameInNamespace.
func ComposeName(name, prefix Name) Name { return prefix.Concat(name) }

// GoString aids debugging output.
func (n Name) GoString() string { return fmt.Sprintf("core.Name%v", n.comps) }
