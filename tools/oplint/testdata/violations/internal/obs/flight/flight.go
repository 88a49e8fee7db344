package flight

type Record struct{}
