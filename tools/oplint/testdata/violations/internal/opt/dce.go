package opt

func UsageCounts() map[int]int { return nil }
