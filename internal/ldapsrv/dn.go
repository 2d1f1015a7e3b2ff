// Package ldapsrv implements the LDAP substrate (the OpenLDAP stand-in of
// §7, Figure 7): a BER-encoded LDAPv3-subset server with a directory
// information tree, plus a client. Supported operations: bind (simple),
// unbind, search (all RFC 4515 filters, base/one/sub scopes, size limits),
// add, delete, modify, and modifyDN.
package ldapsrv

import (
	"fmt"
	"strings"
)

// RDN is a single-valued relative distinguished name component.
type RDN struct {
	Type  string
	Value string
}

// DN is a distinguished name; index 0 is the leaf-most RDN
// ("cn=alice,ou=people,dc=edu" parses to [cn=alice, ou=people, dc=edu]).
type DN []RDN

// ParseDN parses an RFC 4514-subset DN string: single-valued RDNs
// separated by ',', with backslash escaping of special characters
// (including two-hex-digit escapes). Whitespace around separators is
// ignored.
func ParseDN(s string) (DN, error) {
	if strings.TrimSpace(s) == "" {
		return DN{}, nil
	}
	var dn DN
	var cur []byte
	var esc []bool // parallel flags: byte came from an escape
	var typ string
	sawType := false
	// trimmed drops unescaped leading/trailing ASCII spaces only; escaped
	// spaces and non-ASCII whitespace are significant (RFC 4514).
	trimmed := func() string {
		start, end := 0, len(cur)
		for start < end && cur[start] == ' ' && !esc[start] {
			start++
		}
		for end > start && cur[end-1] == ' ' && !esc[end-1] {
			end--
		}
		return string(cur[start:end])
	}
	flush := func() error {
		val := trimmed()
		cur, esc = cur[:0], esc[:0]
		if !sawType {
			return fmt.Errorf("ldapsrv: RDN %q missing '='", val)
		}
		tt := strings.TrimSpace(typ)
		if tt == "" || val == "" {
			return fmt.Errorf("ldapsrv: empty RDN component in %q", s)
		}
		dn = append(dn, RDN{Type: tt, Value: val})
		sawType = false
		typ = ""
		return nil
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\\':
			if i+1 >= len(s) {
				return nil, fmt.Errorf("ldapsrv: trailing escape in DN %q", s)
			}
			n := s[i+1]
			if isHex(n) && i+2 < len(s) && isHex(s[i+2]) {
				cur = append(cur, unhex(n)<<4|unhex(s[i+2]))
				i += 2
			} else {
				cur = append(cur, n)
				i++
			}
			esc = append(esc, true)
		case '=':
			if !sawType {
				typ = trimmed()
				cur, esc = cur[:0], esc[:0]
				sawType = true
			} else {
				cur = append(cur, c)
				esc = append(esc, false)
			}
		case ',', ';':
			if err := flush(); err != nil {
				return nil, err
			}
		default:
			cur = append(cur, c)
			esc = append(esc, false)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return dn, nil
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

// needsDNEscape reports whether byte i of v must be escaped in a DN string.
func needsDNEscape(v string, i int) bool {
	switch c := v[i]; c {
	case ',', '+', '"', '\\', '<', '>', ';', '=':
		return true
	case '#':
		return i == 0
	case ' ':
		return i == 0 || i == len(v)-1
	default:
		return c < 0x20
	}
}

// EscapeDNValue escapes a value for inclusion in a DN string. A value with
// nothing to escape is returned as is.
func EscapeDNValue(v string) string {
	first := 0
	for first < len(v) && !needsDNEscape(v, first) {
		first++
	}
	if first == len(v) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteString(v[:first])
	for i := first; i < len(v); i++ {
		c := v[i]
		switch {
		case !needsDNEscape(v, i):
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, "\\%02x", c)
		default:
			b.WriteByte('\\')
			b.WriteByte(c)
		}
	}
	return b.String()
}

// render joins the RDNs as type=value, each part passed through fold.
func (d DN) render(fold func(string) string) string {
	n := len(d)
	for _, r := range d {
		n += len(r.Type) + len(r.Value) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i, r := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fold(r.Type))
		b.WriteByte('=')
		b.WriteString(fold(EscapeDNValue(r.Value)))
	}
	return b.String()
}

// String renders the DN in RFC 4514 form.
func (d DN) String() string { return d.render(func(s string) string { return s }) }

// Normalize returns the canonical (lower-cased) key form used for DIT
// indexing and comparison.
func (d DN) Normalize() string { return d.render(strings.ToLower) }

// Equal compares DNs case-insensitively.
func (d DN) Equal(o DN) bool { return d.Normalize() == o.Normalize() }

// Parent returns the DN with the leaf RDN removed; the parent of a
// single-RDN DN is the empty DN.
func (d DN) Parent() DN {
	if len(d) == 0 {
		return DN{}
	}
	return d[1:]
}

// Leaf returns the leaf-most RDN; ok=false for the empty DN.
func (d DN) Leaf() (RDN, bool) {
	if len(d) == 0 {
		return RDN{}, false
	}
	return d[0], true
}

// IsUnder reports whether d is base itself or a descendant of base.
func (d DN) IsUnder(base DN) bool {
	if len(base) > len(d) {
		return false
	}
	return DN(d[len(d)-len(base):]).Normalize() == base.Normalize()
}

// Depth returns the number of RDNs below base (0 if d == base).
func (d DN) Depth(base DN) int { return len(d) - len(base) }

// Child builds the DN of a child entry under d.
func (d DN) Child(rdnType, rdnValue string) DN {
	out := make(DN, 0, len(d)+1)
	out = append(out, RDN{Type: rdnType, Value: rdnValue})
	return append(out, d...)
}

// MustParseDN is ParseDN but panics on error.
func MustParseDN(s string) DN {
	d, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return d
}
