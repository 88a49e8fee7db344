package broker

type Options struct {
	InjectFault func(point, method string)
}

type Hooks struct{ Flight int }

type Broker struct{}

func (b *Broker) Summaries() {}

var summaryCache int

// DefaultCacheEntries belongs in cache.go, and only there.
const DefaultCacheEntries = 1
