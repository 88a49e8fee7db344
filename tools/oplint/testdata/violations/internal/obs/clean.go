package obs

import "pea/internal/obs/flight"

// ring is obs's own import of the recorder, which the rule allows.
var ring flight.Record
