package domain

// Checksum-verified identifier domains: ISBN-10, ISBN-13, IBAN, and
// Luhn (credit-card) numbers. These are the sharpest examples of the
// syntactic/semantic gap — every invalid check digit produces a value
// the column's inferred pattern still matches.
//
// All four allow the separators identifiers are conventionally written
// with (spaces and hyphens) and skip them as they read, so the
// significant characters are never copied out.

import "errors"

func init() {
	register(&isbn10Validator{base{
		name:     "isbn10",
		domain:   "checksum",
		desc:     "ISBN-10 book numbers (mod-11 check digit, X allowed)",
		patterns: []string{"<digit>{10}", "<digit>{9}X", "<digit>-<digit>{5}-<digit>{3}-<digit>"},
		priority: 84,
	}})
	register(&isbn13Validator{base{
		name:     "isbn13",
		domain:   "checksum",
		desc:     "ISBN-13 book numbers (978/979 prefix, alternating 1-3 weights mod 10)",
		patterns: []string{"<digit>{13}", "<digit>{3}-<digit>-<digit>{5}-<digit>{3}-<digit>"},
		priority: 85,
	}})
	register(&ibanValidator{base{
		name:     "iban",
		domain:   "checksum",
		desc:     "International Bank Account Numbers (ISO 13616 mod-97)",
		patterns: []string{"<letter>{2}<digit>{2}<alnum>+"},
		priority: 80,
	}})
	register(&luhnValidator{base{
		name:     "luhn",
		domain:   "checksum",
		desc:     "Luhn-checked numbers: credit/debit cards, IMEIs (mod-10 double-every-other)",
		patterns: []string{"<digit>{16}", "<digit>{15}", "<digit>{4} <digit>{4} <digit>{4} <digit>{4}"},
		priority: 40, // generic: any digit run can carry a Luhn digit
	}})
}

// isSep reports whether c is a separator identifier domains
// conventionally allow between significant characters.
func isSep(c byte) bool { return c == ' ' || c == '-' }

// --- ISBN-10 ---

type isbn10Validator struct{ base }

var (
	errISBN10Shape = errors.New("isbn10: not 9 digits plus a digit-or-X check character")
	errISBN10Check = errors.New("isbn10: check digit mismatch")
)

// isbn10Sum returns the mod-11 weighted sum of an ISBN-10 and whether b
// has its shape: nine digits and a digit-or-X check character.
func isbn10Sum(b []byte) (int, bool) {
	sum, n := 0, 0
	for _, c := range b {
		if isSep(c) {
			continue
		}
		switch {
		case isDigit(c) && n < 10:
			sum += (10 - n) * int(c-'0')
		case (c == 'X' || c == 'x') && n == 9:
			sum += 10
		default:
			return 0, false
		}
		n++
	}
	return sum, n == 10
}

func (*isbn10Validator) CanValidate(b []byte) bool {
	_, ok := isbn10Sum(b)
	return ok
}

func (*isbn10Validator) Validate(b []byte) error {
	sum, ok := isbn10Sum(b)
	if !ok {
		return errISBN10Shape
	}
	if sum%11 != 0 {
		return errISBN10Check
	}
	return nil
}

// --- ISBN-13 ---

type isbn13Validator struct{ base }

var (
	errISBN13Shape = errors.New("isbn13: not 13 digits with a 978/979 bookland prefix")
	errISBN13Check = errors.New("isbn13: check digit mismatch")
)

// isbn13Sum returns the 1-3 weighted sum of an ISBN-13 and whether b
// has its shape: 13 digits starting 978 or 979.
func isbn13Sum(b []byte) (int, bool) {
	sum, n := 0, 0
	var prefix [3]byte
	for _, c := range b {
		if isSep(c) {
			continue
		}
		if !isDigit(c) || n == 13 {
			return 0, false
		}
		if n < 3 {
			prefix[n] = c
		}
		sum += (1 + 2*(n%2)) * int(c-'0')
		n++
	}
	return sum, n == 13 && prefix[0] == '9' && prefix[1] == '7' && (prefix[2] == '8' || prefix[2] == '9')
}

func (*isbn13Validator) CanValidate(b []byte) bool {
	_, ok := isbn13Sum(b)
	return ok
}

func (*isbn13Validator) Validate(b []byte) error {
	sum, ok := isbn13Sum(b)
	if !ok {
		return errISBN13Shape
	}
	if sum%10 != 0 {
		return errISBN13Check
	}
	return nil
}

// --- IBAN ---

type ibanValidator struct{ base }

var (
	errIBANShape = errors.New("iban: not CCdd + 11..30 alphanumerics")
	errIBANCheck = errors.New("iban: mod-97 check failed")
)

// ibanRem returns the ISO 13616 mod-97 remainder of an IBAN — the first
// four characters moved to the end, letters read as 10..35, the whole
// number taken mod 97 incrementally — and whether b has its shape: two
// uppercase country letters, two check digits, then alphanumerics, 15
// to 34 characters in all (the shortest national format is 15).
func ibanRem(b []byte) (int, bool) {
	var head [4]byte
	rem, n := 0, 0
	for _, c := range b {
		if isSep(c) {
			continue
		}
		switch {
		case n < 2:
			if c < 'A' || c > 'Z' {
				return 0, false
			}
			head[n] = c
		case n < 4:
			if !isDigit(c) {
				return 0, false
			}
			head[n] = c
		case isDigit(c), c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z':
			rem = mod97(rem, c)
		default:
			return 0, false
		}
		n++
	}
	if n < 15 || n > 34 {
		return 0, false
	}
	for _, c := range head {
		rem = mod97(rem, c)
	}
	return rem, true
}

// mod97 appends the alphanumeric c to the running remainder.
func mod97(rem int, c byte) int {
	if isDigit(c) {
		return (rem*10 + int(c-'0')) % 97
	}
	return (rem*100 + int(c|0x20) - 'a' + 10) % 97 // either case
}

func (*ibanValidator) CanValidate(b []byte) bool {
	_, ok := ibanRem(b)
	return ok
}

func (*ibanValidator) Validate(b []byte) error {
	rem, ok := ibanRem(b)
	if !ok {
		return errIBANShape
	}
	if rem != 1 {
		return errIBANCheck
	}
	return nil
}

// --- Luhn ---

type luhnValidator struct{ base }

var (
	errLuhnShape = errors.New("luhn: not a 12..19 digit number")
	errLuhnCheck = errors.New("luhn: check digit mismatch")
)

// luhnSum returns the Luhn sum of b's digits — every second digit from
// the right doubled, less 9 when that passes 9 — and whether b is a
// 12..19 digit number: payment-card and IMEI lengths; shorter digit
// runs are almost always something else (years, counters, zip codes).
func luhnSum(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if isSep(c) {
			continue
		}
		if !isDigit(c) {
			return 0, false
		}
		n++
	}
	if n < 12 || n > 19 {
		return 0, false
	}
	sum := 0
	for _, c := range b {
		if isSep(c) {
			continue
		}
		d := int(c - '0')
		if n--; n%2 == 1 { // an odd count of digits to its right
			if d *= 2; d > 9 {
				d -= 9
			}
		}
		sum += d
	}
	return sum, true
}

func (*luhnValidator) CanValidate(b []byte) bool {
	_, ok := luhnSum(b)
	return ok
}

func (*luhnValidator) Validate(b []byte) error {
	sum, ok := luhnSum(b)
	if !ok {
		return errLuhnShape
	}
	if sum%10 != 0 {
		return errLuhnCheck
	}
	return nil
}
