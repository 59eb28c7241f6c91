package a_test

import "fix/a"

func useFromXTest() { a.UsedByXTest() }
