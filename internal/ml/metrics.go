package ml

import "sort"

// R2 returns the coefficient of determination of predictions vs labels —
// the regression metric of Figure 15.
func R2(pred, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i := range y {
		d := y[i] - pred[i]
		ssRes += d * d
		m := y[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// AveragePrecision returns the area under the precision-recall curve by
// the standard rank-sum formulation — the classification metric of
// Figure 15.
func AveragePrecision(score, y []float64) float64 {
	n := len(y)
	if n == 0 {
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	var tp, positives int
	for _, v := range y {
		if v >= 0.5 {
			positives++
		}
	}
	if positives == 0 {
		return 0
	}
	ap := 0.0
	for rank, i := range order {
		if y[i] >= 0.5 {
			tp++
			ap += float64(tp) / float64(rank+1)
		}
	}
	return ap / float64(positives)
}
