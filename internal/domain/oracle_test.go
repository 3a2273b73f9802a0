package domain

// The string validators the byte validators replaced, kept as the slow
// obvious side of FuzzDomainValidateAgree: time.Parse for the calendar,
// net/netip for addresses, strings.Split/ToLower and a separator-
// stripping copy for the identifier checksums. They are the previous
// production code with identifiers prefixed "oracle" and one behaviour
// change carried by both sides — an arXiv new-style number is exactly 4
// digits up to 1412 and exactly 5 from 1501.

import (
	"errors"
	"fmt"
	"net/netip"
	"net/url"
	"strings"
	"time"
)

// oracle is one string validator of the reference side.
type oracle interface {
	CanValidate(string) bool
	Validate(string) error
}

// oracles maps every built-in validator's name to its reference.
var oracles = map[string]oracle{
	"date":   oracleDate{},
	"uuid":   oracleUUID{},
	"email":  oracleEmail{},
	"url":    oracleURL{},
	"ipv4":   oracleIPv4{},
	"ipv6":   oracleIPv6{},
	"isbn10": oracleISBN10{},
	"isbn13": oracleISBN13{},
	"iban":   oracleIBAN{},
	"luhn":   oracleLuhn{},
	"doi":    oracleDOI{},
	"arxiv":  oracleArxiv{},
}

// --- date ---

// oracleDateLayouts are the accepted time.Parse layouts, most common
// first.
var oracleDateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	time.RFC3339,
	"02 Jan 2006",
	"Jan 02 2006",
	"January 2, 2006",
}

type oracleDate struct{}

func (oracleDate) CanValidate(s string) bool {
	if len(s) < 10 || len(s) > 35 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

func (v oracleDate) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("date: wrong length or no digits")
	}
	for _, layout := range oracleDateLayouts {
		t, err := time.Parse(layout, s)
		if err != nil {
			continue
		}
		if y := t.Year(); y < 1200 || y > 2999 {
			return fmt.Errorf("date: implausible year %d", y)
		}
		return nil
	}
	return errors.New("date: no layout parses (impossible date or unknown format)")
}

// --- UUID ---

type oracleUUID struct{}

func oracleIsHexLower(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (oracleUUID) CanValidate(s string) bool {
	if len(s) != 36 {
		return false
	}
	for i := 0; i < 36; i++ {
		switch i {
		case 8, 13, 18, 23:
			if s[i] != '-' {
				return false
			}
		default:
			if !oracleIsHexLower(s[i]) {
				return false
			}
		}
	}
	return true
}

func (v oracleUUID) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("uuid: not 8-4-4-4-12 hexadecimal")
	}
	ls := strings.ToLower(s)
	if ls == "00000000-0000-0000-0000-000000000000" ||
		ls == "ffffffff-ffff-ffff-ffff-ffffffffffff" {
		return nil
	}
	version := ls[14]
	if version < '1' || version > '8' {
		return fmt.Errorf("uuid: invalid version nibble %q", string(version))
	}
	switch ls[19] {
	case '8', '9', 'a', 'b':
		return nil
	default:
		return fmt.Errorf("uuid: invalid variant bits in %q (want 8, 9, a, or b)", string(s[19]))
	}
}

// --- email ---

type oracleEmail struct{}

func (oracleEmail) CanValidate(s string) bool {
	at := strings.IndexByte(s, '@')
	return at > 0 && at < len(s)-1 && strings.IndexByte(s[at+1:], '@') < 0
}

func oracleEmailLocalByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+/=?^_`{|}~-", c) >= 0
}

func (v oracleEmail) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("email: need exactly one @ with text on both sides")
	}
	if len(s) > 254 {
		return errors.New("email: longer than 254 octets")
	}
	at := strings.IndexByte(s, '@')
	local, domain := s[:at], s[at+1:]
	if len(local) > 64 {
		return errors.New("email: local part longer than 64 octets")
	}
	if strings.HasPrefix(local, ".") || strings.HasSuffix(local, ".") || strings.Contains(local, "..") {
		return errors.New("email: local part has a leading, trailing, or doubled dot")
	}
	for i := 0; i < len(local); i++ {
		if c := local[i]; c != '.' && !oracleEmailLocalByte(c) {
			return fmt.Errorf("email: invalid character %q in local part", string(c))
		}
	}
	return oracleValidHostname(domain, true)
}

func oracleValidHostname(host string, needDot bool) error {
	if host == "" || len(host) > 253 {
		return errors.New("hostname: empty or longer than 253 octets")
	}
	labels := strings.Split(host, ".")
	if needDot && len(labels) < 2 {
		return errors.New("hostname: need at least two dot-separated labels")
	}
	for _, l := range labels {
		if l == "" || len(l) > 63 {
			return errors.New("hostname: empty or over-long label")
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return fmt.Errorf("hostname: label %q starts or ends with a hyphen", l)
		}
		for i := 0; i < len(l); i++ {
			c := l[i]
			if (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (c < '0' || c > '9') && c != '-' {
				return fmt.Errorf("hostname: invalid character %q in label %q", string(c), l)
			}
		}
	}
	if needDot {
		tld := labels[len(labels)-1]
		if len(tld) < 2 {
			return errors.New("hostname: single-character top-level label")
		}
		for i := 0; i < len(tld); i++ {
			if c := tld[i]; (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') {
				return errors.New("hostname: non-alphabetic top-level label")
			}
		}
	}
	return nil
}

// --- URL ---

type oracleURL struct{}

func (oracleURL) CanValidate(s string) bool {
	return strings.Contains(s, "://")
}

func (v oracleURL) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("url: not an absolute URL (no scheme)")
	}
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("url: %w", err)
	}
	switch u.Scheme {
	case "http", "https", "ftp":
	default:
		return fmt.Errorf("url: scheme %q not in {http, https, ftp}", u.Scheme)
	}
	host := u.Hostname()
	if host == "" {
		return errors.New("url: empty host")
	}
	if port := u.Port(); port != "" {
		n := 0
		for i := 0; i < len(port); i++ {
			if port[i] < '0' || port[i] > '9' {
				return fmt.Errorf("url: non-numeric port %q", port)
			}
			n = n*10 + int(port[i]-'0')
		}
		if n == 0 || n > 65535 {
			return fmt.Errorf("url: port %d out of range", n)
		}
	}
	if _, err := netip.ParseAddr(host); err == nil {
		return nil
	}
	return oracleValidHostname(host, host != "localhost")
}

// --- IPv4 ---

type oracleIPv4 struct{}

func (oracleIPv4) CanValidate(s string) bool {
	if len(s) < 7 || len(s) > 15 || strings.Count(s, ".") != 3 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '.' && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func (v oracleIPv4) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("ipv4: not four dot-separated decimal octets")
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return fmt.Errorf("ipv4: %w", err)
	}
	if !addr.Is4() {
		return errors.New("ipv4: parsed but not an IPv4 address")
	}
	return nil
}

// --- IPv6 ---

type oracleIPv6 struct{}

func (oracleIPv6) CanValidate(s string) bool {
	return strings.Count(s, ":") >= 2
}

func (v oracleIPv6) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("ipv6: fewer than two colons")
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return fmt.Errorf("ipv6: %w", err)
	}
	if !addr.Is6() {
		return errors.New("ipv6: parsed but not an IPv6 address")
	}
	return nil
}

// --- checksums ---

func oracleStripSep(s string) string {
	if !strings.ContainsAny(s, " -") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && c != '-' {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func oracleAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

type oracleISBN10 struct{}

func (oracleISBN10) CanValidate(s string) bool {
	s = oracleStripSep(s)
	if len(s) != 10 {
		return false
	}
	last := s[9]
	return oracleAllDigits(s[:9]) && (last == 'X' || last == 'x' || (last >= '0' && last <= '9'))
}

func (v oracleISBN10) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("isbn10: not 9 digits plus a digit-or-X check character")
	}
	s = oracleStripSep(s)
	sum := 0
	for i := 0; i < 9; i++ {
		sum += (10 - i) * int(s[i]-'0')
	}
	switch last := s[9]; {
	case last == 'X' || last == 'x':
		sum += 10
	default:
		sum += int(last - '0')
	}
	if sum%11 != 0 {
		return fmt.Errorf("isbn10: check digit mismatch (weighted sum %% 11 = %d)", sum%11)
	}
	return nil
}

type oracleISBN13 struct{}

func (oracleISBN13) CanValidate(s string) bool {
	s = oracleStripSep(s)
	return len(s) == 13 && oracleAllDigits(s) &&
		(strings.HasPrefix(s, "978") || strings.HasPrefix(s, "979"))
}

func (v oracleISBN13) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("isbn13: not 13 digits with a 978/979 bookland prefix")
	}
	s = oracleStripSep(s)
	sum := 0
	for i := 0; i < 13; i++ {
		w := 1
		if i%2 == 1 {
			w = 3
		}
		sum += w * int(s[i]-'0')
	}
	if sum%10 != 0 {
		return fmt.Errorf("isbn13: check digit mismatch (weighted sum %% 10 = %d)", sum%10)
	}
	return nil
}

type oracleIBAN struct{}

func (oracleIBAN) CanValidate(s string) bool {
	s = oracleStripSep(s)
	if len(s) < 15 || len(s) > 34 {
		return false
	}
	if s[0] < 'A' || s[0] > 'Z' || s[1] < 'A' || s[1] > 'Z' {
		return false
	}
	if !oracleAllDigits(s[2:4]) {
		return false
	}
	for i := 4; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'A' || c > 'Z') && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}

func (v oracleIBAN) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("iban: not CCdd + 11..30 alphanumerics")
	}
	s = strings.ToUpper(oracleStripSep(s))
	rearranged := s[4:] + s[:4]
	rem := 0
	for i := 0; i < len(rearranged); i++ {
		c := rearranged[i]
		if c >= '0' && c <= '9' {
			rem = (rem*10 + int(c-'0')) % 97
		} else {
			n := int(c-'A') + 10
			rem = (rem*100 + n) % 97
		}
	}
	if rem != 1 {
		return fmt.Errorf("iban: mod-97 check failed (remainder %d, want 1)", rem)
	}
	return nil
}

type oracleLuhn struct{}

func (oracleLuhn) CanValidate(s string) bool {
	s = oracleStripSep(s)
	return len(s) >= 12 && len(s) <= 19 && oracleAllDigits(s)
}

func (v oracleLuhn) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("luhn: not a 12..19 digit number")
	}
	s = oracleStripSep(s)
	sum := 0
	double := false
	for i := len(s) - 1; i >= 0; i-- {
		d := int(s[i] - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	if sum%10 != 0 {
		return fmt.Errorf("luhn: check digit mismatch (sum %% 10 = %d)", sum%10)
	}
	return nil
}

// --- accession IDs ---

type oracleDOI struct{}

func oracleStripDOIPrefix(s string) string {
	for _, p := range []string{"https://doi.org/", "http://doi.org/", "https://dx.doi.org/", "http://dx.doi.org/"} {
		if len(s) > len(p) && strings.EqualFold(s[:len(p)], p) {
			return s[len(p):]
		}
	}
	if len(s) > 4 && strings.EqualFold(s[:4], "doi:") {
		return s[4:]
	}
	return s
}

func (oracleDOI) CanValidate(s string) bool {
	s = oracleStripDOIPrefix(s)
	return strings.HasPrefix(s, "10.") && strings.IndexByte(s, '/') > 3
}

func (v oracleDOI) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("doi: not a 10.<registrant>/<suffix> handle")
	}
	s = oracleStripDOIPrefix(s)
	slash := strings.IndexByte(s, '/')
	registrant, suffix := s[3:slash], s[slash+1:]
	if len(registrant) < 4 || len(registrant) > 9 || !oracleAllDigits(registrant) {
		return fmt.Errorf("doi: registrant %q is not 4..9 digits", registrant)
	}
	if suffix == "" {
		return errors.New("doi: empty suffix")
	}
	for i := 0; i < len(suffix); i++ {
		if c := suffix[i]; c <= ' ' || c >= 0x7f {
			return fmt.Errorf("doi: whitespace or non-printable byte in suffix at %d", i)
		}
	}
	return nil
}

type oracleArxiv struct{}

func oracleStripArxivPrefix(s string) string {
	if len(s) > 6 && strings.EqualFold(s[:6], "arxiv:") {
		return s[6:]
	}
	return s
}

func oracleSplitNewStyle(s string) (string, string, bool) {
	if len(s) < 9 || s[4] != '.' {
		return "", "", false
	}
	yymm, rest := s[:4], s[5:]
	if v := strings.IndexByte(rest, 'v'); v >= 0 {
		if !oracleAllDigits(rest[v+1:]) {
			return "", "", false
		}
		rest = rest[:v]
	}
	if !oracleAllDigits(yymm) || len(rest) < 4 || len(rest) > 5 || !oracleAllDigits(rest) {
		return "", "", false
	}
	return yymm, rest, true
}

func (oracleArxiv) CanValidate(s string) bool {
	s = oracleStripArxivPrefix(s)
	if _, _, ok := oracleSplitNewStyle(s); ok {
		return true
	}
	slash := strings.IndexByte(s, '/')
	if slash <= 0 || !oracleAllDigits(s[slash+1:]) || len(s)-slash-1 != 7 {
		return false
	}
	archive := s[:slash]
	if dot := strings.IndexByte(archive, '.'); dot >= 0 {
		archive = archive[:dot]
	}
	return oracleArxivArchives[archive]
}

var oracleArxivArchives = map[string]bool{
	"astro-ph": true, "cond-mat": true, "gr-qc": true, "hep-ex": true,
	"hep-lat": true, "hep-ph": true, "hep-th": true, "math-ph": true,
	"nlin": true, "nucl-ex": true, "nucl-th": true, "physics": true,
	"quant-ph": true, "math": true, "cs": true, "q-bio": true,
	"q-fin": true, "stat": true, "eess": true, "econ": true,
}

func oracleCheckArxivMonth(yymm string) error {
	mm := int(yymm[2]-'0')*10 + int(yymm[3]-'0')
	if mm < 1 || mm > 12 {
		return fmt.Errorf("arxiv: month %02d does not exist", mm)
	}
	return nil
}

func (v oracleArxiv) Validate(s string) error {
	if !v.CanValidate(s) {
		return errors.New("arxiv: neither YYMM.NNNNN nor archive/YYMMNNN")
	}
	s = oracleStripArxivPrefix(s)
	if yymm, number, ok := oracleSplitNewStyle(s); ok {
		if yymm < "0704" && yymm[0] == '0' {
			return fmt.Errorf("arxiv: new-style id %s predates 2007-04", yymm)
		}
		want := 4
		if yymm >= "1501" {
			want = 5
		}
		if len(number) != want {
			return fmt.Errorf("arxiv: %s ids take %d-digit numbers", yymm, want)
		}
		return oracleCheckArxivMonth(yymm)
	}
	slash := strings.IndexByte(s, '/')
	return oracleCheckArxivMonth(s[slash+1 : slash+5])
}

// --- vocabulary ---

type oracleVocab map[string]struct{}

func (oracleVocab) CanValidate(s string) bool { return s != "" }

func (v oracleVocab) Validate(s string) error {
	if s == "" {
		return fmt.Errorf("vocabulary: empty value")
	}
	if _, ok := v[s]; !ok {
		return fmt.Errorf("vocabulary: %q not in the learned dictionary", s)
	}
	return nil
}
