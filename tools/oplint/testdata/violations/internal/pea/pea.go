package pea

type Config struct{ Flight int }

func Run() error { return nil }
