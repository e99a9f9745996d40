//go:build poisonpool

package ring

// poisonRows: the row pool scribbles every row given back (see scribble).
const poisonRows = true
