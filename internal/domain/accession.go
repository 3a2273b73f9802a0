package domain

// Scientific accession-ID domains: DOIs (the doi.org handle grammar)
// and arXiv identifiers (both the post-2007 YYMM.NNNNN scheme and the
// old archive/YYMMNNN scheme). The semantic layer checks the registrant
// prefix and, for arXiv, that the embedded month actually exists —
// 2513.12345 is pattern-perfect and impossible — and that the number
// has the width of its era.

import (
	"bytes"
	"errors"
)

func init() {
	register(&doiValidator{base{
		name:     "doi",
		domain:   "accession",
		desc:     "DOIs: 10.<registrant>/<suffix>, doi: and https://doi.org/ forms accepted",
		patterns: []string{"<num>.<num>/<all>+"},
		priority: 70,
	}})
	register(&arxivValidator{base{
		name:     "arxiv",
		domain:   "accession",
		desc:     "arXiv IDs: YYMM.NNNN (to 1412) or YYMM.NNNNN (from 1501), month-checked, [vN]; or archive/YYMMNNN",
		patterns: []string{"<digit>{4}.<digit>{5}", "<digit>{4}.<digit>{4}", "<letter>+/<digit>{7}"},
		priority: 75,
	}})
}

// --- DOI ---

type doiValidator struct{ base }

var (
	errDOIShape      = errors.New("doi: not a 10.<registrant>/<suffix> handle")
	errDOIRegistrant = errors.New("doi: registrant is not 4..9 digits")
	errDOISuffix     = errors.New("doi: empty suffix, or whitespace or a non-printable byte in it")
)

// doiPrefixes are the conventional presentation wrappers around the
// bare handle, matched ignoring ASCII case.
var doiPrefixes = []string{"https://doi.org/", "http://doi.org/", "https://dx.doi.org/", "http://dx.doi.org/", "doi:"}

// stripDOIPrefix removes the first wrapper b starts with, as long as
// something follows it.
func stripDOIPrefix(b []byte) []byte {
	for _, p := range doiPrefixes {
		if len(b) > len(p) && hasPrefixFold(b, p) {
			return b[len(p):]
		}
	}
	return b
}

func (*doiValidator) CanValidate(b []byte) bool {
	b = stripDOIPrefix(b)
	return bytes.HasPrefix(b, []byte("10.")) && bytes.IndexByte(b, '/') > 3
}

func (v *doiValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errDOIShape
	}
	b = stripDOIPrefix(b)
	slash := bytes.IndexByte(b, '/')
	registrant, suffix := b[3:slash], b[slash+1:]
	if len(registrant) < 4 || len(registrant) > 9 || !allDigits(registrant) {
		return errDOIRegistrant
	}
	if len(suffix) == 0 {
		return errDOISuffix
	}
	for _, c := range suffix {
		if c <= ' ' || c >= 0x7f {
			return errDOISuffix
		}
	}
	return nil
}

// --- arXiv ---

// arxivArchives is the set of old-scheme archive names (the major
// archives; subject-class suffixes like math.AG ride after a dot).
var arxivArchives = map[string]bool{
	"astro-ph": true, "cond-mat": true, "gr-qc": true, "hep-ex": true,
	"hep-lat": true, "hep-ph": true, "hep-th": true, "math-ph": true,
	"nlin": true, "nucl-ex": true, "nucl-th": true, "physics": true,
	"quant-ph": true, "math": true, "cs": true, "q-bio": true,
	"q-fin": true, "stat": true, "eess": true, "econ": true,
}

type arxivValidator struct{ base }

var (
	errArxivShape = errors.New("arxiv: neither YYMM.NNNNN nor archive/YYMMNNN")
	errArxivEarly = errors.New("arxiv: new-style id predates 2007-04")
	errArxivWidth = errors.New("arxiv: number width wrong for its era (4 digits to 1412, 5 from 1501)")
	errArxivMonth = errors.New("arxiv: month does not exist")
)

func stripArxivPrefix(b []byte) []byte {
	if len(b) > 6 && hasPrefixFold(b, "arxiv:") {
		return b[6:]
	}
	return b
}

// splitNewStyle returns yymm, number, ok for YYMM.NNNN[N][vN] forms.
func splitNewStyle(b []byte) ([]byte, []byte, bool) {
	if len(b) < 9 || b[4] != '.' {
		return nil, nil, false
	}
	yymm, rest := b[:4], b[5:]
	if v := bytes.IndexByte(rest, 'v'); v >= 0 {
		if !allDigits(rest[v+1:]) {
			return nil, nil, false
		}
		rest = rest[:v]
	}
	if !allDigits(yymm) || len(rest) < 4 || len(rest) > 5 || !allDigits(rest) {
		return nil, nil, false
	}
	return yymm, rest, true
}

func (*arxivValidator) CanValidate(b []byte) bool {
	b = stripArxivPrefix(b)
	if _, _, ok := splitNewStyle(b); ok {
		return true
	}
	// Old style: archive[.SC]/YYMMNNN.
	slash := bytes.IndexByte(b, '/')
	if slash <= 0 || len(b)-slash-1 != 7 || !allDigits(b[slash+1:]) {
		return false
	}
	archive := b[:slash]
	if dot := bytes.IndexByte(archive, '.'); dot >= 0 {
		archive = archive[:dot]
	}
	return arxivArchives[string(archive)]
}

// arxivMonth checks the month of a YYMM stamp.
func arxivMonth(yymm []byte) error {
	if mm := int(yymm[2]-'0')*10 + int(yymm[3]-'0'); mm < 1 || mm > 12 {
		return errArxivMonth
	}
	return nil
}

func (v *arxivValidator) Validate(b []byte) error {
	if !v.CanValidate(b) {
		return errArxivShape
	}
	b = stripArxivPrefix(b)
	if yymm, number, ok := splitNewStyle(b); ok {
		// The new scheme started 2007-04 with 4-digit numbers and went
		// to 5 digits in 2015-01; earlier YYMMs are impossible.
		if string(yymm) < "0704" {
			return errArxivEarly
		}
		if (string(yymm) < "1501") != (len(number) == 4) {
			return errArxivWidth
		}
		return arxivMonth(yymm)
	}
	slash := bytes.IndexByte(b, '/')
	return arxivMonth(b[slash+1 : slash+5])
}
