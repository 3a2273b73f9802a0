// Package msa implements greedy progressive multi-sequence alignment over
// token-class sequences, as used by Auto-Validate's vertical cuts (paper
// §3): optimal MSA under sum-of-pair scores is NP-hard, so sequences are
// aligned one at a time against a growing profile — which, as the paper
// notes, is typically optimal for homogeneous machine-generated data.
package msa

import "slices"

// Scoring used by the pairwise and profile alignments. Values follow the
// usual match/mismatch/gap convention for short token sequences.
const (
	matchScore    = 2
	mismatchScore = -2
	gapScore      = -1
)

// Gap marks a gap position in an alignment row.
const Gap = -1

// Alignment is the result of aligning n sequences: a matrix of n rows and
// Cols columns where Rows[i][c] is the index into sequence i of the token
// aligned at column c, or Gap.
type Alignment struct {
	Cols int
	Rows [][]int
}

// Align aligns the given symbol sequences (symbols compare by equality).
// The first sequence seeds the profile; each subsequent sequence is
// aligned to the profile with Needleman-Wunsch and merged. Align never
// fails; aligning zero sequences yields an empty alignment.
//
// Symbols are numbered once, so a profile column's multiset is a row of
// small counts; the DP and traceback matrices are two flat slabs reused
// from sequence to sequence; and each symbol is recorded against the
// column it joined, so rows are laid out once, at the end, however many
// columns later insertions put before it.
func Align(seqs [][]string) Alignment {
	if len(seqs) == 0 {
		return Alignment{}
	}
	// sym[off[i]+j] is the number of seqs[i][j], col[off[i]+j] the
	// column it was aligned to.
	ids := map[string]int{}
	off := make([]int, len(seqs)+1)
	for i, s := range seqs {
		off[i+1] = off[i] + len(s)
	}
	sym, col := make([]int, off[len(seqs)]), make([]int, off[len(seqs)])
	for i, s := range seqs {
		for j, v := range s {
			id, ok := ids[v]
			if !ok {
				id = len(ids)
				ids[v] = id
			}
			sym[off[i]+j] = id
		}
	}

	// Profile: columns in order, each the multiset of symbols aligned
	// there — counts[c*k+s] members of column c are symbol s, of
	// total[c] in all.
	k := len(ids)
	var counts, total, profile []int
	join := func(c, s int) {
		counts[c*k+s]++
		total[c]++
	}
	newCol := func() int {
		counts = append(counts, make([]int, k)...)
		total = append(total, 0)
		return len(total) - 1
	}
	for j := range seqs[0] {
		c := newCol()
		join(c, sym[j])
		col[j] = c
		profile = append(profile, c)
	}

	// score of aligning symbol s against profile column c: the average
	// pairwise score against the column's members.
	colScore := func(c, s int) int {
		if total[c] == 0 {
			return mismatchScore
		}
		m := counts[c*k+s]
		return (m*matchScore + (total[c]-m)*mismatchScore) / total[c]
	}

	var dp []int
	var bt []byte
	var merged []int
	for si := 1; si < len(seqs); si++ {
		seq := sym[off[si]:off[si+1]]
		n, m := len(profile), len(seq)
		// Needleman-Wunsch DP: dp[i*w+j] = best score aligning
		// profile[:i] with seq[:j].
		w := m + 1
		dp = slices.Grow(dp[:0], (n+1)*w)[:(n+1)*w]
		bt = slices.Grow(bt[:0], (n+1)*w)[:(n+1)*w]
		dp[0], bt[0] = 0, 0
		for i := 1; i <= n; i++ {
			dp[i*w] = dp[(i-1)*w] + gapScore
			bt[i*w] = 'u' // up: gap in sequence
		}
		for j := 1; j <= m; j++ {
			dp[j] = dp[j-1] + gapScore
			bt[j] = 'l' // left: gap in profile
		}
		for i := 1; i <= n; i++ {
			c := profile[i-1]
			for j := 1; j <= m; j++ {
				diag := dp[(i-1)*w+j-1] + colScore(c, seq[j-1])
				up := dp[(i-1)*w+j] + gapScore
				left := dp[i*w+j-1] + gapScore
				best, dir := diag, byte('d')
				if up > best {
					best, dir = up, 'u'
				}
				if left > best {
					best, dir = left, 'l'
				}
				dp[i*w+j] = best
				bt[i*w+j] = dir
			}
		}
		// Trace back, merging the sequence into the profile: the new
		// column order is built back to front.
		merged = merged[:0]
		for i, j := n, m; i > 0 || j > 0; {
			switch bt[i*w+j] {
			case 'd':
				c := profile[i-1]
				join(c, seq[j-1])
				col[off[si]+j-1] = c
				merged = append(merged, c)
				i, j = i-1, j-1
			case 'u':
				merged = append(merged, profile[i-1])
				i--
			default:
				c := newCol()
				join(c, seq[j-1])
				col[off[si]+j-1] = c
				merged = append(merged, c)
				j--
			}
		}
		slices.Reverse(merged)
		profile, merged = merged, profile
	}

	// Lay the rows out: column c of the profile is at pos[c].
	pos := make([]int, len(total))
	for p, c := range profile {
		pos[c] = p
	}
	cols := len(profile)
	cells := make([]int, len(seqs)*cols)
	for i := range cells {
		cells[i] = Gap
	}
	rows := make([][]int, len(seqs))
	for i := range seqs {
		row := cells[i*cols : (i+1)*cols : (i+1)*cols]
		for j := off[i]; j < off[i+1]; j++ {
			row[pos[col[j]]] = j - off[i]
		}
		rows[i] = row
	}
	return Alignment{Cols: cols, Rows: rows}
}
