package summary

var (
	PutSummaries, LoadSummaries, summariesID, sumFlight, sumFlightMu int
	summaryCall, SummaryHits, CountCallSite, MonomorphicTarget       int
	ReturnsParam, ReturnsFresh                                       bool
)

func DecodeJSON([]byte) error { return nil }
