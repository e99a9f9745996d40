//go:build !poisonpool

package ring

const poisonRows = false
