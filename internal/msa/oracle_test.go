package msa

// oracleAlign is Align as it was before it numbered symbols and reused
// its matrices: a map of symbol counts per profile column, two fresh
// matrices per sequence, and every earlier row rebuilt whenever columns
// are inserted. It is the slow obvious reference FuzzAlignAgree holds
// Align to.
func oracleAlign(seqs [][]string) Alignment {
	if len(seqs) == 0 {
		return Alignment{}
	}
	// Profile: one column = multiset of symbols currently aligned there.
	type column struct {
		counts map[string]int
		total  int
	}
	newCol := func() *column { return &column{counts: map[string]int{}} }

	profile := make([]*column, len(seqs[0]))
	rows := make([][]int, 1, len(seqs))
	rows[0] = make([]int, len(seqs[0]))
	for i, s := range seqs[0] {
		profile[i] = newCol()
		profile[i].counts[s]++
		profile[i].total++
		rows[0][i] = i
	}

	// score of aligning symbol s against profile column c: the average
	// pairwise score against the column's members.
	colScore := func(c *column, s string) int {
		if c.total == 0 {
			return mismatchScore
		}
		m := c.counts[s]
		return (m*matchScore + (c.total-m)*mismatchScore) / c.total
	}

	for si := 1; si < len(seqs); si++ {
		seq := seqs[si]
		n, m := len(profile), len(seq)
		// Needleman-Wunsch DP: dp[i][j] = best score aligning
		// profile[:i] with seq[:j].
		dp := make([][]int, n+1)
		bt := make([][]byte, n+1)
		for i := 0; i <= n; i++ {
			dp[i] = make([]int, m+1)
			bt[i] = make([]byte, m+1)
		}
		for i := 1; i <= n; i++ {
			dp[i][0] = dp[i-1][0] + gapScore
			bt[i][0] = 'u' // up: gap in sequence
		}
		for j := 1; j <= m; j++ {
			dp[0][j] = dp[0][j-1] + gapScore
			bt[0][j] = 'l' // left: gap in profile
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= m; j++ {
				diag := dp[i-1][j-1] + colScore(profile[i-1], seq[j-1])
				up := dp[i-1][j] + gapScore
				left := dp[i][j-1] + gapScore
				best, dir := diag, byte('d')
				if up > best {
					best, dir = up, 'u'
				}
				if left > best {
					best, dir = left, 'l'
				}
				dp[i][j] = best
				bt[i][j] = dir
			}
		}
		// Trace back to build the merged column order.
		type step struct{ pi, sj int } // profile column index or Gap, seq index or Gap
		var rev []step
		for i, j := n, m; i > 0 || j > 0; {
			switch bt[i][j] {
			case 'd':
				rev = append(rev, step{i - 1, j - 1})
				i, j = i-1, j-1
			case 'u':
				rev = append(rev, step{i - 1, Gap})
				i--
			default:
				rev = append(rev, step{Gap, j - 1})
				j--
			}
		}
		// Build new profile and remap existing rows.
		newProfile := make([]*column, len(rev))
		newRow := make([]int, len(rev))
		remap := make([]int, n) // old profile column -> new column
		for k := range rev {
			st := rev[len(rev)-1-k]
			if st.pi != Gap {
				newProfile[k] = profile[st.pi]
				remap[st.pi] = k
			} else {
				newProfile[k] = newCol()
			}
			if st.sj != Gap {
				newProfile[k].counts[seq[st.sj]]++
				newProfile[k].total++
				newRow[k] = st.sj
			} else {
				newRow[k] = Gap
			}
		}
		if len(rev) != n { // columns were inserted: remap old rows
			for ri := range rows {
				nr := make([]int, len(rev))
				for k := range nr {
					nr[k] = Gap
				}
				for oldCol, v := range rows[ri] {
					if v != Gap {
						nr[remap[oldCol]] = v
					}
				}
				rows[ri] = nr
			}
		}
		profile = newProfile
		rows = append(rows, newRow)
	}

	return Alignment{Cols: len(profile), Rows: rows}
}
