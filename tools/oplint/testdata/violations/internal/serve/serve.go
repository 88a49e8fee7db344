package serve

import (
	"pea/internal/broker"
	"pea/internal/ea"
	"pea/internal/opt"
	"pea/internal/pea"
)

type Options struct {
	Summaries    bool
	CacheEntries int
}

var (
	_ = pea.Run
	_ = ea.Run
	_ *opt.Inliner
	_ = broker.DefaultCacheEntries
)
