package interp

type Interp struct{ MaxSteps int64 }

var traps = []string{
	"null dereference in f",
	"null receiver calling m",
	"null throw",
	"negative array size -1",
	"division by zero",
	"monitor exit on unlocked object",
}
