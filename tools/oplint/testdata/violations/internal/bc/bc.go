package bc

type Program struct{}

func (*Program) NumStatics() int { return 0 }
