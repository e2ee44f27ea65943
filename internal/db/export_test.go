package db

// The reference fold and its comparison, for the differential test over
// the paper databases and the scenario corpora, which import this package.
var (
	JoinOrders   = joinOrders
	FoldMismatch = foldMismatch
)
