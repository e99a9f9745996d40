//go:build poisonpool

package ring

// poisonRows: the row pool scribbles every row given back (see scribble)
// and never hands a header out again (see putHeader).
const poisonRows = true
