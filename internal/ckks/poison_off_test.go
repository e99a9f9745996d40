//go:build !poisonpool

package ckks

const poisonPool = false
