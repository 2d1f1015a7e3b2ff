// Package dnssrv implements the DNS substrate the paper anchors its
// federated name space in (§6, Figure 6): an authoritative name server
// (the Bind stand-in) and a resolver client, speaking a faithful subset of
// the RFC 1035 wire protocol over UDP and TCP, including name compression.
package dnssrv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// RR types supported.
const (
	TypeA     uint16 = 1
	TypeNS    uint16 = 2
	TypeCNAME uint16 = 5
	TypeSOA   uint16 = 6
	TypePTR   uint16 = 12
	TypeMX    uint16 = 15
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
	TypeSRV   uint16 = 33
	TypeAXFR  uint16 = 252
	TypeANY   uint16 = 255
)

// ClassIN is the Internet class; the only one supported.
const ClassIN uint16 = 1

// Response codes.
const (
	RcodeNoError  = 0
	RcodeFormErr  = 1
	RcodeServFail = 2
	RcodeNXDomain = 3
	RcodeNotImpl  = 4
	RcodeRefused  = 5
)

// TypeString names an RR type for display.
func TypeString(t uint16) string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSRV:
		return "SRV"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", t)
	}
}

// Header is the fixed 12-byte DNS message header.
type Header struct {
	ID      uint16
	QR      bool  // response flag
	Opcode  uint8 // 0 = standard query
	AA      bool  // authoritative answer
	TC      bool  // truncated
	RD      bool  // recursion desired
	RA      bool  // recursion available
	Rcode   uint8
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is one query.
type Question struct {
	Name  string // canonical lower-case, dot-terminated, e.g. "mathcs.emory.global."
	Type  uint16
	Class uint16
}

// RR is a resource record. Exactly one of the data fields is meaningful,
// selected by Type.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32

	A      netip.Addr // A / AAAA
	Target string     // CNAME / NS / PTR / SRV target / MX exchange
	Txt    []string   // TXT character strings
	Pref   uint16     // MX preference / SRV priority
	Weight uint16     // SRV
	Port   uint16     // SRV
	SOA    *SOAData
}

// SOAData is the SOA RDATA.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Errors from the codec.
var (
	ErrTruncatedMessage = errors.New("dnssrv: truncated message")
	ErrBadName          = errors.New("dnssrv: malformed domain name")
	ErrPointerLoop      = errors.New("dnssrv: compression pointer loop")
)

// CanonicalName lower-cases a domain name and ensures the trailing dot.
func CanonicalName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// builder appends a message to one buffer, compressing names against
// the suffixes it has already written (RFC 1035 §4.1.4).
type builder struct {
	buf   []byte
	start int // where the message begins in buf: pointers count from here
	// offs holds the first n suffixes written with their offsets: a
	// message the size of a UDP answer writes a handful, scanned in
	// place. Past maxScannedNames they move into index.
	offs  [maxScannedNames]nameOffset
	n     int
	index map[string]int
}

type nameOffset struct {
	name string
	off  int
}

// maxScannedNames bounds the suffixes the builder scans linearly; a
// zone transfer writes thousands and looks them up in a map instead.
const maxScannedNames = 32

func (b *builder) u16(v uint16) {
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
}

func (b *builder) u32(v uint32) {
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
}

// offset reports where suffix s was written, if it was.
func (b *builder) offset(s string) (int, bool) {
	if b.index != nil {
		off, ok := b.index[s]
		return off, ok
	}
	for _, o := range b.offs[:b.n] {
		if o.name == s {
			return o.off, true
		}
	}
	return 0, false
}

func (b *builder) remember(s string, off int) {
	if b.index == nil && b.n < maxScannedNames {
		b.offs[b.n] = nameOffset{s, off}
		b.n++
		return
	}
	if b.index == nil {
		b.index = make(map[string]int, 4*maxScannedNames)
		for _, o := range b.offs {
			b.index[o.name] = o.off
		}
	}
	b.index[s] = off
}

// name encodes a domain name. Compressed, it ends in a pointer at the
// longest suffix already written, and its own suffixes become pointer
// targets. Every label must be 1-63 bytes: the root is the one empty
// label, and it ends the name.
func (b *builder) name(s string, compress bool) error {
	s = CanonicalName(s)
	if s == "." {
		s = ""
	}
	for s != "" {
		if compress {
			if off, ok := b.offset(s); ok {
				b.u16(0xC000 | uint16(off))
				return nil
			}
		}
		dot := strings.IndexByte(s, '.')
		label := s[:dot]
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		if off := len(b.buf) - b.start; compress && off <= 0x3FFF {
			b.remember(s, off)
		}
		b.buf = append(b.buf, byte(len(label)))
		b.buf = append(b.buf, label...)
		s = s[dot+1:]
	}
	b.buf = append(b.buf, 0)
	return nil
}

func (b *builder) rr(r *RR) error {
	if err := b.name(r.Name, true); err != nil {
		return err
	}
	b.u16(r.Type)
	b.u16(r.Class)
	b.u32(r.TTL)
	lenAt := len(b.buf)
	b.u16(0) // placeholder
	start := len(b.buf)
	switch r.Type {
	case TypeA:
		a := r.A.As4()
		b.buf = append(b.buf, a[:]...)
	case TypeAAAA:
		a := r.A.As16()
		b.buf = append(b.buf, a[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		if err := b.name(r.Target, true); err != nil {
			return err
		}
	case TypeMX:
		b.u16(r.Pref)
		if err := b.name(r.Target, true); err != nil {
			return err
		}
	case TypeSRV:
		b.u16(r.Pref)
		b.u16(r.Weight)
		b.u16(r.Port)
		// RFC 2782: SRV target must not be compressed.
		if err := b.name(r.Target, false); err != nil {
			return err
		}
	case TypeTXT:
		for _, t := range r.Txt {
			if len(t) > 255 {
				return fmt.Errorf("dnssrv: TXT string of %d bytes too long", len(t))
			}
			b.buf = append(b.buf, byte(len(t)))
			b.buf = append(b.buf, t...)
		}
	case TypeSOA:
		if r.SOA == nil {
			return errors.New("dnssrv: SOA record without data")
		}
		if err := b.name(r.SOA.MName, true); err != nil {
			return err
		}
		if err := b.name(r.SOA.RName, true); err != nil {
			return err
		}
		b.u32(r.SOA.Serial)
		b.u32(r.SOA.Refresh)
		b.u32(r.SOA.Retry)
		b.u32(r.SOA.Expire)
		b.u32(r.SOA.Minimum)
	default:
		return fmt.Errorf("dnssrv: cannot encode RR type %d", r.Type)
	}
	rdlen := len(b.buf) - start
	binary.BigEndian.PutUint16(b.buf[lenAt:], uint16(rdlen))
	return nil
}

// nameSize bounds a name's uncompressed wire length: its labels, their
// length bytes and the root, one more when the trailing dot is missing.
func nameSize(s string) int { return len(s) + 2 }

// wireSize bounds the encoded size of m before compression, so Encode
// sizes its buffer once.
func (m *Message) wireSize() int {
	n := 12
	for i := range m.Questions {
		n += nameSize(m.Questions[i].Name) + 4
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			r := &sec[i]
			n += nameSize(r.Name) + 10
			switch r.Type {
			case TypeA:
				n += 4
			case TypeAAAA:
				n += 16
			case TypeCNAME, TypeNS, TypePTR:
				n += nameSize(r.Target)
			case TypeMX:
				n += 2 + nameSize(r.Target)
			case TypeSRV:
				n += 6 + nameSize(r.Target)
			case TypeTXT:
				for _, t := range r.Txt {
					n += 1 + len(t)
				}
			case TypeSOA:
				if r.SOA != nil {
					n += nameSize(r.SOA.MName) + nameSize(r.SOA.RName) + 20
				}
			}
		}
	}
	return n
}

// Encode serializes the message to wire format.
func (m *Message) Encode() ([]byte, error) {
	return m.appendWire(make([]byte, 0, m.wireSize()))
}

// appendWire appends m's wire form to dst; its compression pointers
// count from len(dst), so a caller may reserve a prefix (a TCP length).
func (m *Message) appendWire(dst []byte) ([]byte, error) {
	b := builder{buf: dst, start: len(dst)}
	h := m.Header
	b.u16(h.ID)
	var flags uint16
	if h.QR {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		flags |= 1 << 10
	}
	if h.TC {
		flags |= 1 << 9
	}
	if h.RD {
		flags |= 1 << 8
	}
	if h.RA {
		flags |= 1 << 7
	}
	flags |= uint16(h.Rcode & 0xF)
	b.u16(flags)
	b.u16(uint16(len(m.Questions)))
	b.u16(uint16(len(m.Answers)))
	b.u16(uint16(len(m.Authority)))
	b.u16(uint16(len(m.Additional)))

	for i := range m.Questions {
		q := &m.Questions[i]
		if err := b.name(q.Name, true); err != nil {
			return nil, err
		}
		b.u16(q.Type)
		b.u16(q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := b.rr(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return b.buf, nil
}

// reader decodes wire format in place.
type reader struct {
	buf []byte
	pos int
	// names caches the names decoded so far by the offset their
	// decoding began at, so a pointer straight to one — an answer
	// naming the question — reuses its string.
	names [4]decodedName
	n     int
}

type decodedName struct {
	off, hops int
	s         string
}

func (r *reader) u8() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncatedMessage
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.buf) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.buf) {
		return nil, ErrTruncatedMessage
	}
	v := r.buf[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

// maxPointerHops bounds the compression pointers one name may follow.
const maxPointerHops = 32

// name decodes a possibly-compressed domain name, lower-cased, into one
// string.
func (r *reader) name() (string, error) {
	start := r.pos
	if start+2 <= len(r.buf) && r.buf[start]&0xC0 == 0xC0 {
		target := int(binary.BigEndian.Uint16(r.buf[start:]) & 0x3FFF)
		for _, d := range r.names[:r.n] {
			if d.off == target && d.hops < maxPointerHops {
				r.pos = start + 2
				return d.s, nil
			}
		}
	}
	var stack [255]byte
	out := stack[:0]
	pos := start
	jumped := false
	hops := 0
	for {
		if pos >= len(r.buf) {
			return "", ErrTruncatedMessage
		}
		c := r.buf[pos]
		switch {
		case c == 0:
			if !jumped {
				r.pos = pos + 1
			}
			s := "."
			if len(out) > 0 {
				s = string(out)
			}
			if r.n < len(r.names) {
				r.names[r.n] = decodedName{off: start, hops: hops, s: s}
				r.n++
			}
			return s, nil
		case c&0xC0 == 0xC0:
			if pos+2 > len(r.buf) {
				return "", ErrTruncatedMessage
			}
			target := int(binary.BigEndian.Uint16(r.buf[pos:]) & 0x3FFF)
			if !jumped {
				r.pos = pos + 2
				jumped = true
			}
			hops++
			if hops > maxPointerHops {
				return "", ErrPointerLoop
			}
			pos = target
		case c&0xC0 != 0:
			return "", ErrBadName
		default:
			end := pos + 1 + int(c)
			if end > len(r.buf) {
				return "", ErrTruncatedMessage
			}
			at := len(out)
			out = append(out, r.buf[pos+1:end]...)
			for i := at; i < len(out); i++ {
				if 'A' <= out[i] && out[i] <= 'Z' {
					out[i] += 'a' - 'A'
				}
			}
			out = append(out, '.')
			pos = end
		}
	}
}

func (r *reader) rr() (RR, error) {
	var rr RR
	var err error
	if rr.Name, err = r.name(); err != nil {
		return rr, err
	}
	if rr.Type, err = r.u16(); err != nil {
		return rr, err
	}
	if rr.Class, err = r.u16(); err != nil {
		return rr, err
	}
	if rr.TTL, err = r.u32(); err != nil {
		return rr, err
	}
	rdlen, err := r.u16()
	if err != nil {
		return rr, err
	}
	end := r.pos + int(rdlen)
	if end > len(r.buf) {
		return rr, ErrTruncatedMessage
	}
	switch rr.Type {
	case TypeA:
		b, err := r.bytes(4)
		if err != nil {
			return rr, err
		}
		rr.A = netip.AddrFrom4([4]byte(b))
	case TypeAAAA:
		b, err := r.bytes(16)
		if err != nil {
			return rr, err
		}
		rr.A = netip.AddrFrom16([16]byte(b))
	case TypeCNAME, TypeNS, TypePTR:
		if rr.Target, err = r.name(); err != nil {
			return rr, err
		}
	case TypeMX:
		if rr.Pref, err = r.u16(); err != nil {
			return rr, err
		}
		if rr.Target, err = r.name(); err != nil {
			return rr, err
		}
	case TypeSRV:
		if rr.Pref, err = r.u16(); err != nil {
			return rr, err
		}
		if rr.Weight, err = r.u16(); err != nil {
			return rr, err
		}
		if rr.Port, err = r.u16(); err != nil {
			return rr, err
		}
		if rr.Target, err = r.name(); err != nil {
			return rr, err
		}
	case TypeTXT:
		n := 0
		for p := r.pos; p < end; p += 1 + int(r.buf[p]) {
			n++
		}
		if n > 0 {
			rr.Txt = make([]string, 0, n)
		}
		for r.pos < end {
			n, err := r.u8()
			if err != nil {
				return rr, err
			}
			s, err := r.bytes(int(n))
			if err != nil {
				return rr, err
			}
			rr.Txt = append(rr.Txt, string(s))
		}
	case TypeSOA:
		soa := &SOAData{}
		if soa.MName, err = r.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = r.name(); err != nil {
			return rr, err
		}
		if soa.Serial, err = r.u32(); err != nil {
			return rr, err
		}
		if soa.Refresh, err = r.u32(); err != nil {
			return rr, err
		}
		if soa.Retry, err = r.u32(); err != nil {
			return rr, err
		}
		if soa.Expire, err = r.u32(); err != nil {
			return rr, err
		}
		if soa.Minimum, err = r.u32(); err != nil {
			return rr, err
		}
		rr.SOA = soa
	default:
		// Unknown type: skip RDATA.
		if _, err := r.bytes(int(rdlen)); err != nil {
			return rr, err
		}
	}
	if r.pos != end {
		// Tolerate over-read only as an error; under-read skips ahead.
		if r.pos > end {
			return rr, fmt.Errorf("dnssrv: RDATA overrun for %s", TypeString(rr.Type))
		}
		r.pos = end
	}
	return rr, nil
}

// Smallest encodings, which bound how many entries the bytes left can
// hold: a root name and its fixed fields.
const (
	minQuestionSize = 1 + 4
	minRRSize       = 1 + 10
)

// decoded is a message allocated together with room for its question:
// a query or an answer asks one.
type decoded struct {
	Message
	q [1]Question
}

// DecodeMessage parses a wire-format DNS message. Its sections are
// sized once from the header counts, bounded by the bytes left, and
// its three record sections share one array.
func DecodeMessage(buf []byte) (*Message, error) {
	r := reader{buf: buf}
	d := &decoded{}
	m := &d.Message
	h := &m.Header
	var err error
	if h.ID, err = r.u16(); err != nil {
		return nil, err
	}
	flags, err := r.u16()
	if err != nil {
		return nil, err
	}
	h.QR = flags&(1<<15) != 0
	h.Opcode = uint8(flags >> 11 & 0xF)
	h.AA = flags&(1<<10) != 0
	h.TC = flags&(1<<9) != 0
	h.RD = flags&(1<<8) != 0
	h.RA = flags&(1<<7) != 0
	h.Rcode = uint8(flags & 0xF)
	for _, c := range []*uint16{&h.QDCount, &h.ANCount, &h.NSCount, &h.ARCount} {
		if *c, err = r.u16(); err != nil {
			return nil, err
		}
	}
	switch {
	case h.QDCount == 1:
		m.Questions = d.q[:0]
	case h.QDCount > 1:
		m.Questions = make([]Question, 0, min(int(h.QDCount), (len(buf)-r.pos)/minQuestionSize))
	}
	for i := 0; i < int(h.QDCount); i++ {
		var q Question
		if q.Name, err = r.name(); err != nil {
			return nil, err
		}
		if q.Type, err = r.u16(); err != nil {
			return nil, err
		}
		if q.Class, err = r.u16(); err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, q)
	}
	counts := [3]int{int(h.ANCount), int(h.NSCount), int(h.ARCount)}
	total := counts[0] + counts[1] + counts[2]
	if total == 0 {
		return m, nil
	}
	rrs := make([]RR, 0, min(total, (len(buf)-r.pos)/minRRSize))
	for i := 0; i < total; i++ {
		rr, err := r.rr()
		if err != nil {
			return nil, err
		}
		rrs = append(rrs, rr)
	}
	secs := [3]*[]RR{&m.Answers, &m.Authority, &m.Additional}
	at := 0
	for i, n := range counts {
		if n > 0 {
			*secs[i] = rrs[at : at+n : at+n]
			at += n
		}
	}
	return m, nil
}

// String renders an RR in zone-file-like form for diagnostics.
func (r RR) String() string {
	var data string
	switch r.Type {
	case TypeA, TypeAAAA:
		data = r.A.String()
	case TypeCNAME, TypeNS, TypePTR:
		data = r.Target
	case TypeMX:
		data = fmt.Sprintf("%d %s", r.Pref, r.Target)
	case TypeSRV:
		data = fmt.Sprintf("%d %d %d %s", r.Pref, r.Weight, r.Port, r.Target)
	case TypeTXT:
		data = `"` + strings.Join(r.Txt, `" "`) + `"`
	case TypeSOA:
		if r.SOA != nil {
			data = fmt.Sprintf("%s %s %d", r.SOA.MName, r.SOA.RName, r.SOA.Serial)
		}
	}
	return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, TypeString(r.Type), data)
}
