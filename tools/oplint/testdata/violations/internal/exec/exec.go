package exec

type Engine struct {
	Sink     int
	MaxSteps int64
}
