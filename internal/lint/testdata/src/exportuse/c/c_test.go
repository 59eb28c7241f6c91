package c

import "fix/a"

func useFromTest() { a.UsedByCTest() }
