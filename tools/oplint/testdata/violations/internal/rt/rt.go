package rt

type Env struct{ Cycles int64 }

type Value struct{ isRef bool }

func (v Value) IsRef() bool { return v.isRef }

func (v Value) Kind() int { return 0 }
