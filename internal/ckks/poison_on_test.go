//go:build poisonpool

package ckks

// poisonPool: the row pool scribbles every row given back and never hands a
// row-set header out again, so allocation counts include one header per take.
const poisonPool = true
