package spectrum

import "sensorcal/internal/dsp"

// oracleNoiseFloorOf is NoiseFloorOf before the sampled-pivot gather:
// copy every bin and quickselect the copy. Kept verbatim (bar the
// names) as the reference FuzzNoiseFloor holds the new body to.
func oracleNoiseFloorOf(binsDB []float64, quietFraction float64) float64 {
	if quietFraction <= 0 || quietFraction > 1 {
		quietFraction = 0.25
	}
	scratch := dsp.GetFloat(len(binsDB))
	defer dsp.PutFloat(scratch)
	copy(scratch, binsDB)
	k := int(float64(len(scratch)) * quietFraction)
	if k < 1 {
		k = 1
	}
	return oracleSelectKth(scratch, k/2)
}

// oracleSelectKth is selectKth as oracleNoiseFloorOf called it.
func oracleSelectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}
