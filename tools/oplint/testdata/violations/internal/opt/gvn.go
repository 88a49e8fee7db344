package opt

import format "fmt"

func valueKey(v int) string { return format.Sprintf("v%d", v) }
