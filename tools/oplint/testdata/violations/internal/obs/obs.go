package obs

type Sink struct{}

func (s *Sink) Metrics() int { return 0 }

const (
	GaugeBrokerCacheSize = iota
	GaugeBrokerQueueDepth
	GaugeBrokerQueueHighWater
	GaugeBrokerWorkersBusy
)

func SetGauge()      {}
func ObservePhase()  {}
func RemoveBackend() {}
func sameBackend()   {}
func flightLine()    {}
func ingestFlight()  {}
