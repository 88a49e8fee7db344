package rt

type Env struct{ Cycles int64 }
