package main

import _ "pea/internal/cost"

func main() {}
