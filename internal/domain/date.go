package domain

// Calendar-aware date validation. A date column's inferred pattern
// (<digit>{4}-<digit>{2}-<digit>{2}) happily accepts 2021-02-30 and
// month 13; the civil calendar — month ranges, days per month, leap
// years — is exactly the semantic layer the pattern lacks.
//
// The parser reads bytes directly and accepts what time.Parse accepts
// for eight layouts, most common first:
//
//	2006-01-02            2006/01/02
//	2006-01-02 15:04:05   2006-01-02T15:04:05
//	2006-01-02T15:04:05Z07:00 (RFC 3339)
//	02 Jan 2006           Jan 02 2006           January 2, 2006
//
// including time.Parse's leniencies: a one-digit hour, a fractional
// second of any length after the seconds (with '.' or ','), a run of
// spaces wherever the layout has one, case-insensitive month names, and
// zone offsets up to ±24:60. All layouts are unambiguous (no US-vs-EU
// day/month confusion) and at least 10 characters, matching
// CanValidate's length gate.

import "errors"

func init() {
	register(&dateValidator{base{
		name:   "date",
		domain: "calendar",
		desc:   "calendar-valid dates and timestamps in common layouts",
		patterns: []string{
			"<digit>{4}-<digit>{2}-<digit>{2}",
			"<digit>{4}/<digit>{2}/<digit>{2}",
			"<letter>{3} <digit>{2} <digit>{4}",
			"<digit>{4}-<digit>{2}-<digit>{2} <digit>{2}:<digit>{2}:<digit>{2}",
		},
		priority: 50,
	}})
}

var (
	errDateShape  = errors.New("date: wrong length or no digits")
	errDateLayout = errors.New("date: no layout parses (impossible date or unknown format)")
	errDateYear   = errors.New("date: implausible year")
)

type dateValidator struct{ base }

func (*dateValidator) CanValidate(b []byte) bool {
	if len(b) < 10 || len(b) > 35 {
		return false
	}
	for _, c := range b {
		if isDigit(c) {
			return true
		}
	}
	return false
}

func (v *dateValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errDateShape
	}
	year, ok := parseDate(b)
	if !ok {
		return errDateLayout
	}
	// The calendar is enforced by the parse; what remains is the
	// plausibility of the year, so a column of version strings like
	// "0001-02-03" is not claimed.
	if year < 1200 || year > 2999 {
		return errDateYear
	}
	return nil
}

// parseDate reports whether b is a calendar-valid date in one of the
// layouts, and its year.
func parseDate(b []byte) (year int, ok bool) {
	if len(b) > 0 && isDigit(b[0]) {
		if len(b) > 2 && b[2] == ' ' {
			return parseDayMonthYear(b)
		}
		return parseISO(b)
	}
	return parseMonthDayYear(b)
}

// parseISO reads the 2006-01-02 and 2006/01/02 layouts and the '-'
// form followed by a clock: " 15:04:05", "T15:04:05", or
// "T15:04:05Z07:00".
func parseISO(b []byte) (int, bool) {
	if len(b) < 10 || (b[4] != '-' && b[4] != '/') || b[7] != b[4] {
		return 0, false
	}
	year, ok := digitsN(b[:4])
	month, ok2 := digitsN(b[5:7])
	day, ok3 := digitsN(b[8:10])
	if !ok || !ok2 || !ok3 || !civil(year, month, day) {
		return 0, false
	}
	rest := b[10:]
	if len(rest) == 0 {
		return year, true
	}
	if b[4] != '-' {
		return 0, false
	}
	switch rest[0] {
	case ' ':
		rest, ok = parseClock(cutSpace(rest))
		return year, ok && len(rest) == 0
	case 'T':
		if rest, ok = parseClock(rest[1:]); !ok {
			return 0, false
		}
		return year, len(rest) == 0 || zoneOffset(rest)
	}
	return 0, false
}

// parseClock reads 15:04:05 (the hour may be one digit, as time.Parse
// allows) and an optional fractional second, returning what follows.
func parseClock(b []byte) ([]byte, bool) {
	hour, b, ok := num12(b, false)
	if !ok || hour >= 24 || len(b) < 1 || b[0] != ':' {
		return nil, false
	}
	min, b, ok := num12(b[1:], true)
	if !ok || min >= 60 || len(b) < 1 || b[0] != ':' {
		return nil, false
	}
	sec, b, ok := num12(b[1:], true)
	if !ok || sec >= 60 {
		return nil, false
	}
	if len(b) >= 2 && (b[0] == '.' || b[0] == ',') && isDigit(b[1]) {
		n := 2
		for n < len(b) && isDigit(b[n]) {
			n++
		}
		b = b[n:]
	}
	return b, true
}

// zoneOffset reports whether b is exactly an RFC 3339 zone: "Z" or
// ±hh:mm (time.Parse takes hours up to 24 and minutes up to 60).
func zoneOffset(b []byte) bool {
	if len(b) == 1 {
		return b[0] == 'Z'
	}
	if len(b) != 6 || (b[0] != '+' && b[0] != '-') || b[3] != ':' {
		return false
	}
	hh, ok := digitsN(b[1:3])
	mm, ok2 := digitsN(b[4:6])
	return ok && ok2 && hh <= 24 && mm <= 60
}

// parseDayMonthYear reads 02 Jan 2006.
func parseDayMonthYear(b []byte) (int, bool) {
	day, ok := digitsN(b[:2])
	if !ok {
		return 0, false
	}
	b = cutSpace(b[2:])
	month, b := monthName(b, shortMonths)
	if month == 0 || len(b) == 0 || b[0] != ' ' {
		return 0, false
	}
	return yearEnd(cutSpace(b), month, day)
}

// parseMonthDayYear reads Jan 02 2006 and, failing that, January 2,
// 2006 ("May 2, 2006" starts like the first and is the second).
func parseMonthDayYear(b []byte) (int, bool) {
	if month, rest := monthName(b, shortMonths); month != 0 && len(rest) > 0 && rest[0] == ' ' {
		rest = cutSpace(rest)
		if len(rest) > 2 && rest[2] == ' ' {
			if day, ok := digitsN(rest[:2]); ok {
				if year, ok := yearEnd(cutSpace(rest[2:]), month, day); ok {
					return year, true
				}
			}
		}
	}
	month, rest := monthName(b, longMonths)
	if month == 0 || len(rest) == 0 || rest[0] != ' ' {
		return 0, false
	}
	day, rest, ok := num12(cutSpace(rest), false)
	if !ok || len(rest) < 2 || rest[0] != ',' || rest[1] != ' ' {
		return 0, false
	}
	return yearEnd(cutSpace(rest[1:]), month, day)
}

// yearEnd reads a four-digit year that ends the value and checks the
// whole date against the calendar.
func yearEnd(b []byte, month, day int) (int, bool) {
	if len(b) != 4 {
		return 0, false
	}
	year, ok := digitsN(b)
	return year, ok && civil(year, month, day)
}

var (
	shortMonths = []string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}
	longMonths  = []string{"january", "february", "march", "april", "may", "june", "july", "august", "september", "october", "november", "december"}
)

// monthName matches a month name at the start of b, ignoring ASCII
// case, and returns its number (0 when none matches) and the rest.
func monthName(b []byte, names []string) (int, []byte) {
	for i, name := range names {
		if hasPrefixFold(b, name) {
			return i + 1, b[len(name):]
		}
	}
	return 0, b
}

// monthDays is the length of each month outside leap years.
var monthDays = [13]int{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// civil reports whether month and day name a day of the civil calendar
// in year.
func civil(year, month, day int) bool {
	if month < 1 || month > 12 || day < 1 {
		return false
	}
	if day <= monthDays[month] {
		return true
	}
	return month == 2 && day == 29 && year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

// num12 reads a one- or two-digit number (exactly two when fixed) and
// returns it with the rest of b.
func num12(b []byte, fixed bool) (int, []byte, bool) {
	if len(b) == 0 || !isDigit(b[0]) {
		return 0, b, false
	}
	if len(b) == 1 || !isDigit(b[1]) {
		return int(b[0] - '0'), b[1:], !fixed
	}
	return int(b[0]-'0')*10 + int(b[1]-'0'), b[2:], true
}

// digitsN parses b as an unsigned decimal number made only of digits.
func digitsN(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(b) > 0
}

func cutSpace(b []byte) []byte {
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	return b
}
