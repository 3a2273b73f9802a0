package domain

// RFC-grammar domains: UUID (RFC 9562), email addresses (a pragmatic
// RFC 5321/5322 subset), URLs (RFC 3986, http/https/ftp), and IP
// addresses (RFC 791 dotted-quad / RFC 4291 IPv6 text forms). The
// semantic layer here is the part a token pattern cannot see: UUID
// version/variant bits, hostname label rules, octet ranges and the
// leading-zero ambiguity, valid hex groupings. Every grammar here reads
// bytes directly; only the URL validator converts its value to a string,
// for net/url.

import (
	"bytes"
	"errors"
	"net/url"
)

func init() {
	register(&uuidValidator{base{
		name:     "uuid",
		domain:   "rfc",
		desc:     "RFC 9562 UUIDs (8-4-4-4-12 hex with valid version and variant bits)",
		patterns: []string{"<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}"},
		priority: 90,
	}})
	register(&emailValidator{base{
		name:     "email",
		domain:   "rfc",
		desc:     "email addresses (RFC 5321 subset: local@domain with valid labels)",
		patterns: []string{"<alnum>+@<alnum>+.<letter>+"},
		priority: 60,
	}})
	register(&urlValidator{base{
		name:     "url",
		domain:   "rfc",
		desc:     "absolute http/https/ftp URLs with a valid host",
		patterns: []string{"<letter>+://<all>+"},
		priority: 55,
	}})
	register(&ipv4Validator{base{
		name:     "ipv4",
		domain:   "rfc",
		desc:     "IPv4 dotted-quad addresses (octets 0..255, no leading zeros)",
		patterns: []string{"<num>.<num>.<num>.<num>"},
		priority: 64,
	}})
	register(&ipv6Validator{base{
		name:     "ipv6",
		domain:   "rfc",
		desc:     "IPv6 addresses in RFC 4291 text form",
		patterns: []string{"<alnum>+:<alnum>+:<all>+"},
		priority: 65,
	}})
}

// text is the two forms a grammar below reads: a value's bytes, or a
// string net/url handed back.
type text interface{ ~string | ~[]byte }

// --- UUID ---

type uuidValidator struct{ base }

var (
	errUUIDShape   = errors.New("uuid: not 8-4-4-4-12 hexadecimal")
	errUUIDVersion = errors.New("uuid: invalid version nibble")
	errUUIDVariant = errors.New("uuid: invalid variant bits (want 8, 9, a, or b)")
)

// notHex is 1 for every byte that is not a hexadecimal digit: a table,
// because digit-or-letter in random hex is a branch no predictor learns.
var notHex = func() (t [256]uint8) {
	for c := range t {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			t[c] = 1
		}
	}
	return t
}()

func isHex(c byte) bool { return notHex[c] == 0 }

func (*uuidValidator) CanValidate(b []byte) bool {
	if len(b) != 36 || b[8] != '-' || b[13] != '-' || b[18] != '-' || b[23] != '-' {
		return false
	}
	nonHex := 0
	for _, c := range b {
		nonHex += int(notHex[c])
	}
	return nonHex == 4 // the dashes, and nothing else
}

// uuidAll reports whether every hex digit of a well-formed UUID is the
// nibble c (either case).
func uuidAll(b []byte, c byte) bool {
	for _, d := range b {
		if d != '-' && d|0x20 != c {
			return false
		}
	}
	return true
}

func (v *uuidValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errUUIDShape
	}
	// The nil and max UUIDs are defined special values (RFC 9562 §5.9,
	// §5.10) with out-of-band version/variant fields.
	if uuidAll(b, '0') || uuidAll(b, 'f') {
		return nil
	}
	if version := b[14]; version < '1' || version > '8' {
		return errUUIDVersion
	}
	switch b[19] | 0x20 {
	case '8', '9', 'a', 'b': // variant 10xx: OSF DCE / RFC 9562
		return nil
	}
	return errUUIDVariant
}

// --- email ---

type emailValidator struct{ base }

var (
	errEmailShape = errors.New("email: need exactly one @ with text on both sides")
	errEmailLong  = errors.New("email: longer than 254 octets")
	errLocalLong  = errors.New("email: local part longer than 64 octets")
	errLocalDots  = errors.New("email: local part has a leading, trailing, or doubled dot")
	errLocalByte  = errors.New("email: invalid character in local part")
)

func (*emailValidator) CanValidate(b []byte) bool {
	at := bytes.IndexByte(b, '@')
	return at > 0 && at < len(b)-1 && bytes.IndexByte(b[at+1:], '@') < 0
}

// emailLocalByte reports whether c may appear in an unquoted local part
// (RFC 5322 atext plus the dot handled separately).
func emailLocalByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '/', '=', '?', '^', '_', '`', '{', '|', '}', '~', '-':
		return true
	}
	return false
}

func (v *emailValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errEmailShape
	}
	if len(b) > 254 {
		return errEmailLong
	}
	at := bytes.IndexByte(b, '@')
	local, domain := b[:at], b[at+1:]
	if len(local) > 64 {
		return errLocalLong
	}
	for i, c := range local {
		if c == '.' {
			if i == 0 || i == len(local)-1 || local[i-1] == '.' {
				return errLocalDots
			}
		} else if !emailLocalByte(c) {
			return errLocalByte
		}
	}
	return validHostname(domain, true)
}

var (
	errHostLength  = errors.New("hostname: empty or longer than 253 octets")
	errHostLabels  = errors.New("hostname: need at least two dot-separated labels")
	errLabelLength = errors.New("hostname: empty or over-long label")
	errLabelHyphen = errors.New("hostname: label starts or ends with a hyphen")
	errLabelByte   = errors.New("hostname: invalid character in label")
	errTLDShort    = errors.New("hostname: single-character top-level label")
	errTLDAlpha    = errors.New("hostname: non-alphabetic top-level label")
)

// validHostname applies the RFC 1035/5321 label rules; needDot requires
// at least two labels with an alphabetic top-level label (emails and
// public URLs), which rejects bare words that match the grammar but
// name nothing.
func validHostname[T text](host T, needDot bool) error {
	if len(host) == 0 || len(host) > 253 {
		return errHostLength
	}
	labels, start := 1, 0
	for i := 0; i <= len(host); i++ {
		if i < len(host) && host[i] != '.' {
			continue
		}
		if err := validLabel(host[start:i]); err != nil {
			return err
		}
		if i < len(host) {
			labels++
			start = i + 1
		}
	}
	if !needDot {
		return nil
	}
	if labels < 2 {
		return errHostLabels
	}
	tld := host[start:]
	if len(tld) < 2 {
		return errTLDShort
	}
	for i := 0; i < len(tld); i++ {
		if c := tld[i]; (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') {
			return errTLDAlpha
		}
	}
	return nil
}

func validLabel[T text](l T) error {
	if len(l) == 0 || len(l) > 63 {
		return errLabelLength
	}
	if l[0] == '-' || l[len(l)-1] == '-' {
		return errLabelHyphen
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		if (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (c < '0' || c > '9') && c != '-' {
			return errLabelByte
		}
	}
	return nil
}

// --- URL ---

type urlValidator struct{ base }

var (
	errURLShape  = errors.New("url: not an absolute URL (no scheme)")
	errURLParse  = errors.New("url: does not parse")
	errURLScheme = errors.New("url: scheme not in {http, https, ftp}")
	errURLHost   = errors.New("url: empty host")
	errURLPort   = errors.New("url: port not a number in 1..65535")
)

func (*urlValidator) CanValidate(b []byte) bool {
	return bytes.Contains(b, []byte("://"))
}

// Validate is the one built-in that allocates per value: URL syntax —
// escapes, userinfo, bracketed IPv6 hosts, ports — is net/url's, and
// net/url parses strings, so the value is copied into one.
func (v *urlValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errURLShape
	}
	u, err := url.Parse(string(b))
	if err != nil {
		return errURLParse
	}
	switch u.Scheme {
	case "http", "https", "ftp":
	default:
		return errURLScheme
	}
	host := u.Hostname()
	if host == "" {
		return errURLHost
	}
	if port := u.Port(); port != "" {
		n, ok := digitsN([]byte(port))
		if !ok || n == 0 || n > 65535 {
			return errURLPort
		}
	}
	// Hosts may be IP literals or hostnames; localhost gets a pass on
	// the two-label requirement.
	if ipAddr(host) {
		return nil
	}
	return validHostname(host, host != "localhost")
}

// ipAddr reports whether s is an IP address as net/netip.ParseAddr
// reads one: the first '.', ':' or '%' decides between a dotted quad
// and IPv6 text (a '%' first is a zone with no address).
func ipAddr[T text](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '.':
			return ipv4Fields(s)
		case ':':
			return ipv6Text(s)
		case '%':
			return false
		}
	}
	return false
}

// ipv4Fields reports whether s is exactly four dot-separated decimal
// octets, each 0..255 without a leading zero.
func ipv4Fields[T text](s T) bool {
	if len(s) < len("0.0.0.0") || len(s) > len("255.255.255.255") {
		return false
	}
	// Digits are read from a zero-padded copy, so each octet's width is
	// computed rather than looped for: in a column of addresses octet
	// widths are random, and a loop exit on them is a branch no
	// predictor learns.
	var buf [20]byte
	copy(buf[:], s)
	i := 0
	for field := 0; ; field++ {
		d0, d1, d2 := uint(buf[i]-'0'), uint(buf[i+1]-'0'), uint(buf[i+2]-'0')
		two := b2u(d1 < 10)
		three := two & b2u(d2 < 10)
		n := 1 + two + three
		val := [4]uint{0, d0, d0*10 + d1, d0*100 + d1*10 + d2}[n]
		// A leading zero is refused: inet_aton would read octal.
		if d0 > 9 || (n > 1 && d0 == 0) || val > 255 {
			return false
		}
		i += int(n)
		if field == 3 {
			return i == len(s)
		}
		if buf[i] != '.' {
			return false
		}
		i++
	}
}

func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// ipv6Text reports whether s is RFC 4291 IPv6 text — up to eight hex
// groups of 1..4 digits, at most one "::" standing for one or more zero
// groups, an optional trailing dotted quad in place of the last two
// groups, and an optional non-empty %zone — as net/netip reads it.
func ipv6Text[T text](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			if i == len(s)-1 {
				return false // empty zone
			}
			s = s[:i]
			break
		}
	}
	groups, ellipsis := 0, false // groups counts 16-bit fields
	if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
		ellipsis = true
		s = s[2:]
		if len(s) == 0 {
			return true
		}
	}
	for groups < 8 {
		off := 0
		for off < len(s) && isHex(s[off]) {
			if off++; off > 4 {
				return false
			}
		}
		if off == 0 {
			return false
		}
		if off < len(s) && s[off] == '.' {
			// A trailing dotted quad fills the last two groups.
			if (!ellipsis && groups != 6) || groups > 6 || !ipv4Fields(s) {
				return false
			}
			groups += 2
			s = s[len(s):]
			break
		}
		groups++
		s = s[off:]
		if len(s) == 0 {
			break
		}
		if s[0] != ':' || len(s) == 1 {
			return false
		}
		s = s[1:]
		if s[0] == ':' {
			if ellipsis {
				return false // a second "::"
			}
			ellipsis = true
			s = s[1:]
			if len(s) == 0 {
				break
			}
		}
	}
	if len(s) != 0 {
		return false
	}
	// Without "::" the groups must fill the address; with it, "::" must
	// stand for at least one zero group.
	return groups < 8 && ellipsis || groups == 8 && !ellipsis
}

// --- IPv4 ---

type ipv4Validator struct{ base }

var errIPv4 = errors.New("ipv4: not four dot-separated decimal octets 0..255 without leading zeros")

func (*ipv4Validator) CanValidate(b []byte) bool {
	if len(b) < 7 || len(b) > 15 {
		return false
	}
	dots := 0
	for _, c := range b {
		if c == '.' {
			dots++
		} else if !isDigit(c) {
			return false
		}
	}
	return dots == 3
}

// Validate is strict: octets 0..255 and no leading zeros, which is the
// semantic trap ("192.168.001.001" is ambiguous octal in inet_aton).
func (*ipv4Validator) Validate(b []byte) error {
	// ipv4Fields admits only 7..15 bytes of digits and exactly three
	// dots, so it implies CanValidate.
	if !ipv4Fields(b) {
		return errIPv4
	}
	return nil
}

// --- IPv6 ---

type ipv6Validator struct{ base }

var (
	errIPv6Shape = errors.New("ipv6: fewer than two colons")
	errIPv6      = errors.New("ipv6: not RFC 4291 IPv6 text")
)

func (*ipv6Validator) CanValidate(b []byte) bool {
	colons := 0
	for _, c := range b {
		if c == ':' {
			colons++
		}
	}
	return colons >= 2
}

func (v *ipv6Validator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errIPv6Shape
	}
	// Only text whose first '.', ':' or '%' is a colon is IPv6 text to
	// netip; a leading dotted quad or zone is not an IPv6 address.
	if i := bytes.IndexAny(b, ".:%"); b[i] != ':' || !ipv6Text(b) {
		return errIPv6
	}
	return nil
}
